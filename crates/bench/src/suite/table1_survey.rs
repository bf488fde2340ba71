//! Table I: the storage-format survey, *measured* rather than quoted —
//! for each system we store one 10 MB BLOB and read it back, reporting
//! the duplicate copies (write amplification), log volume, read
//! indirections, and read copies that the paper's table catalogues.

use crate::*;
use lobster_baselines::{ClientServerCost, FsProfile, LobsterMode};

pub(crate) fn run(report: &mut Report) {
    let blob = 10 << 20;
    let data = make_payload(blob, 1);
    // The survey prices storage formats, so the DBMSs run without their
    // client/server layer.
    let rig = Rig {
        data: Dev::mem(1 << 30),
        cache_pages: 16 * 1024,
        ..Rig::YCSB
    };
    let systems = [
        sys_our(LobsterMode::Blobs),
        sys_fs(FsProfile::ext4_ordered),
        sys_fs(FsProfile::ext4_journal),
        sys_postgres(ClientServerCost::none()),
        sys_mysql(ClientServerCost::none()),
        sys_sqlite(false),
        sys_sqlite(true).named("SQLite+index"),
    ];

    for spec in systems {
        let store = spec.build(&rig);
        let before = store.stats().metrics;
        store.put("blob", &data).expect("put");
        store.flush().ok();
        let after_write = store.stats().metrics;
        let write_delta = after_write - before;

        // Warm read: indirections + copies.
        let mut sink = 0usize;
        store.get("blob", &mut |b| sink = b.len()).expect("read");
        assert_eq!(sink, blob);
        let read_delta = store.stats().metrics - after_write;

        let write_amp = write_delta.bytes_written as f64 / blob as f64;
        report.push(
            Entry::new(spec.name, "write_amplification", "x", write_amp, false)
                .param("blob", "10MB")
                .counters(write_delta, 1),
        );
        report.push(
            Entry::new(
                spec.name,
                "read_memcpy",
                "bytes",
                read_delta.memcpy_bytes as f64,
                false,
            )
            .param("blob", "10MB")
            .counters(read_delta, 1),
        );
    }
}

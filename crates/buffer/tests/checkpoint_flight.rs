//! A checkpoint must leave an extent with a flush on the device to that
//! flush's ticket: writing it again puts every page on the device twice
//! (and, with eager flushes of uncommitted puts, a checkpoint can meet such
//! an extent any time). Checked on both pools with a device that counts the
//! writes each page receives and can hold them back.

use lobster_buffer::{BlobPool, ExtentPool, FlushItem, HashTablePool, PoolConfig};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, MemDevice};
use lobster_types::{Geometry, Pid, Result};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

const PAGE: usize = 4096;

#[derive(Default)]
struct State {
    /// Page number -> writes that covered it.
    writes: HashMap<u64, u32>,
    held: bool,
    waiting: u32,
}

struct CountingDevice {
    inner: MemDevice,
    state: Mutex<State>,
    cv: Condvar,
}

impl CountingDevice {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(CountingDevice {
            inner: MemDevice::new(cap),
            state: Mutex::default(),
            cv: Condvar::new(),
        })
    }

    fn hold(&self, held: bool) {
        self.state.lock().unwrap().held = held;
        self.cv.notify_all();
    }

    /// Block until `n` writes are parked at the gate.
    fn await_waiting(&self, n: u32) {
        let mut st = self.state.lock().unwrap();
        while st.waiting < n {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn writes_to(&self, spec: ExtentSpec) -> Vec<u32> {
        let st = self.state.lock().unwrap();
        (0..spec.pages)
            .map(|i| *st.writes.get(&(spec.start.raw() + i)).unwrap_or(&0))
            .collect()
    }
}

impl Device for CountingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        st.waiting += 1;
        self.cv.notify_all();
        while st.held {
            st = self.cv.wait(st).unwrap();
        }
        st.waiting -= 1;
        for page in offset / PAGE as u64..(offset + buf.len() as u64).div_ceil(PAGE as u64) {
            *st.writes.entry(page).or_default() += 1;
        }
        drop(st);
        self.inner.write_at(buf, offset)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

fn pools(dev: &Arc<CountingDevice>) -> Vec<(&'static str, BlobPool)> {
    let device: Arc<dyn Device> = dev.clone();
    let geo = Geometry::new(PAGE);
    let cfg = PoolConfig {
        frames: 256,
        alias: None,
        io_threads: 2,
    };
    let vm = ExtentPool::new(device.clone(), geo, cfg, lobster_metrics::new_metrics());
    let ht = HashTablePool::new(device, geo, 256, lobster_metrics::new_metrics());
    vec![("vm", BlobPool::Vm(vm)), ("ht", BlobPool::Ht(ht))]
}

#[test]
fn checkpoint_leaves_an_extent_in_flight_to_its_ticket() {
    for which in 0..2 {
        // Each pool gets its own device so the counts stay apart.
        let dev = CountingDevice::new(8 << 20);
        let (label, pool) = pools(&dev).swap_remove(which);
        let flying = ExtentSpec::new(Pid::new(16), 32);
        let idle = ExtentSpec::new(Pid::new(64), 8);
        let fill = |spec: ExtentSpec, byte: u8| {
            let src = vec![byte; spec.pages as usize * PAGE];
            pool.fill_extent_hashed(spec, &src, &mut |_| ()).unwrap();
        };
        fill(flying, 0xA1);
        fill(idle, 0xB2);

        // The flight is on the device, held there.
        dev.hold(true);
        let ticket = pool
            .flush_extents_async(&[FlushItem::whole(flying)])
            .unwrap();
        dev.await_waiting(1);

        // The checkpoint runs against it: it writes the idle extent — once
        // the device lets go — and nothing of the flying one.
        std::thread::scope(|s| {
            let checkpoint = s.spawn(|| pool.flush_all_dirty().unwrap());
            dev.await_waiting(2); // the checkpoint's first write, and no more
            dev.hold(false);
            checkpoint.join().unwrap();
        });
        ticket.wait().unwrap();

        assert!(
            dev.writes_to(flying).iter().all(|&n| n == 1),
            "{label}: flying extent written {:?} times per page",
            dev.writes_to(flying)
        );
        assert!(dev.writes_to(idle).iter().all(|&n| n == 1), "{label}");

        // Both are clean now: a second checkpoint writes nothing, and the
        // content on the device is what was filled.
        pool.flush_all_dirty().unwrap();
        assert!(dev.writes_to(flying).iter().all(|&n| n == 1), "{label}");
        assert!(dev.writes_to(idle).iter().all(|&n| n == 1), "{label}");
        pool.drop_extents(&[flying, idle]);
        let ok = pool
            .read_blob(0, &[flying], (flying.pages as usize * PAGE) as u64, |b| {
                b.iter().all(|&x| x == 0xA1)
            })
            .unwrap();
        assert!(ok, "{label}: flying extent's content on the device");
    }
}

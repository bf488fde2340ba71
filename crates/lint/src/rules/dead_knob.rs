//! **dead-knob**: every `pub` field of a configuration struct
//! ([`LintConfig::knob_structs`]) must be assigned somewhere in the
//! linted tree outside the file that defines it — a struct literal
//! `Name { field: … }` or a `.field = …` store — or carry a
//! `// knob: <why>` note on the field. A knob only its own `Default`
//! (and tests, benches and examples, none of which the lint walks) ever
//! sets is one value in use: a constant next to the code that reads it.
//!
//! Token-level, so deliberately lenient: a `.field =` store counts for
//! every knob struct with a field of that name, whatever the receiver.

use crate::config::LintConfig;
use crate::lexer::{is_path_sep, Tok};
use crate::{Diagnostic, SourceFile};

const RULE: &str = "dead-knob";

struct Knob {
    strukt: String,
    field: String,
    file: String,
    line: u32,
    col: u32,
}

struct Assign {
    /// `None` for a `.field =` store (receiver type unknown).
    strukt: Option<String>,
    field: String,
    file: String,
}

#[derive(Default)]
pub struct Collector {
    knobs: Vec<Knob>,
    assigns: Vec<Assign>,
}

impl Collector {
    pub fn collect(&mut self, f: &SourceFile, cfg: &LintConfig) {
        let toks = &f.lx.toks;
        let named = |j: usize| {
            toks.get(j)
                .filter(|t| cfg.knob_structs.iter().any(|s| t.is_ident(s)))
        };
        for i in 0..toks.len() {
            if f.in_test_mod(toks[i].line) {
                continue;
            }
            if toks[i].is_ident("struct") {
                if let (Some(name), Some(open)) = (named(i + 1), toks.get(i + 2)) {
                    if open.is_punct('{') {
                        self.definition(f, cfg, &name.text, i + 2);
                    }
                }
            } else if let (Some(name), Some(open)) = (named(i), toks.get(i + 1)) {
                let defines = i > 0 && toks[i - 1].is_ident("struct");
                if open.is_punct('{') && !defines {
                    self.literal(f, &name.text, i + 1);
                }
            }
            // `.field = value` (not `==`).
            if toks[i].is_punct('.')
                && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
                && !toks.get(i + 3).is_some_and(|t| t.is_punct('='))
            {
                if let Some(field) = toks.get(i + 1).filter(|t| !t.text.is_empty()) {
                    self.assigns.push(Assign {
                        strukt: None,
                        field: field.text.clone(),
                        file: f.rel.clone(),
                    });
                }
            }
        }
    }

    /// Record the `pub` fields of the struct whose body opens at `open`.
    fn definition(&mut self, f: &SourceFile, cfg: &LintConfig, strukt: &str, open: usize) {
        let toks = &f.lx.toks;
        for i in body_positions(toks, open) {
            let is_field = toks[i].is_ident("pub")
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && !is_path_sep(toks, i + 2);
            let Some(field) = toks.get(i + 1).filter(|_| is_field) else {
                continue;
            };
            let noted = f.lx.adjacent_comment(field.line, has_knob_note);
            if noted || f.allowed(RULE, field.line, cfg.head_allow_lines) {
                continue;
            }
            self.knobs.push(Knob {
                strukt: strukt.to_string(),
                field: field.text.clone(),
                file: f.rel.clone(),
                line: field.line,
                col: field.col,
            });
        }
    }

    /// Record the fields a `Name { … }` literal opening at `open` sets:
    /// `field: value` and the `field` shorthand. An `impl … for Name {`
    /// or `-> Name {` body has no such token in field position.
    fn literal(&mut self, f: &SourceFile, strukt: &str, open: usize) {
        let toks = &f.lx.toks;
        for i in body_positions(toks, open) {
            let after_sep = toks[i - 1].is_punct('{') || toks[i - 1].is_punct(',');
            let sets = toks.get(i + 1).is_some_and(|t| {
                (t.is_punct(':') && !is_path_sep(toks, i + 1)) || t.is_punct(',') || t.is_punct('}')
            });
            if after_sep && sets && !toks[i].text.is_empty() {
                self.assigns.push(Assign {
                    strukt: Some(strukt.to_string()),
                    field: toks[i].text.clone(),
                    file: f.rel.clone(),
                });
            }
        }
    }

    pub fn finalize(self, out: &mut Vec<Diagnostic>) {
        for k in &self.knobs {
            let live = self.assigns.iter().any(|a| {
                a.file != k.file
                    && a.field == k.field
                    && a.strukt.as_deref().unwrap_or(&k.strukt) == k.strukt
            });
            if !live {
                out.push(Diagnostic {
                    rule: RULE,
                    file: k.file.clone(),
                    line: k.line,
                    col: k.col,
                    message: format!(
                        "`{}::{}` is never assigned outside {}",
                        k.strukt, k.field, k.file
                    ),
                    note: "make it a constant next to the code that reads it, or say who \
                           varies it in a `// knob: <why>` note on the field"
                        .into(),
                });
            }
        }
    }
}

/// Indices of the tokens directly inside the bracket opening at `open`
/// (nested brackets of any kind are skipped over).
fn body_positions(toks: &[Tok], open: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        let opens = t.is_punct('{') || t.is_punct('(') || t.is_punct('[');
        let closes = t.is_punct('}') || t.is_punct(')') || t.is_punct(']');
        if closes {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if depth == 1 {
            out.push(i);
        }
        if opens {
            depth += 1;
        }
    }
    out
}

/// `knob: <why>` with a non-empty reason.
fn has_knob_note(comment: &str) -> bool {
    comment
        .split_once("knob:")
        .is_some_and(|(_, why)| !why.trim().is_empty())
}

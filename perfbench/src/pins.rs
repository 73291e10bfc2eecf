//! Pinned simulated outputs. Simulated results are deterministic, so
//! every run compares what it simulated against the values in
//! `pins.txt` and counts a mismatch as a failed cell. `--print-pins`
//! prints the observed values in the same format instead of comparing,
//! which is how the file is regenerated after a deliberate model change.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// FNV-1a over `text`, as 16 hex digits: a stable digest of a rendered
/// result (independent of build and host).
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The pinned values, or a recorder of observed ones.
pub struct Pins {
    expected: BTreeMap<String, String>,
    record: bool,
    observed: RefCell<BTreeMap<String, String>>,
}

impl Pins {
    /// Parses `key=value` lines; `#` starts a comment line.
    pub fn parse(text: &str, record: bool) -> Pins {
        let expected = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
            .collect();
        Pins {
            expected,
            record,
            observed: RefCell::new(BTreeMap::new()),
        }
    }

    /// True if `got` equals the pinned value for `key` (always true when
    /// recording). A mismatch names the key and both values on stderr.
    pub fn check(&self, key: &str, got: impl ToString) -> bool {
        let got = got.to_string();
        if self.record {
            self.observed.borrow_mut().insert(key.to_owned(), got);
            return true;
        }
        match self.expected.get(key) {
            Some(want) if *want == got => true,
            Some(want) => {
                eprintln!("pin mismatch: {key}: pinned {want}, simulated {got}");
                false
            }
            None => {
                eprintln!("pin missing: {key} (simulated {got})");
                false
            }
        }
    }

    /// The recorded values as `pins.txt` lines.
    pub fn render_observed(&self) -> String {
        self.observed
            .borrow()
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }
}

//! Self-test on a reduced workload: the deterministic counts repeat
//! exactly, the result line parses, every metric carries its name and
//! unit, and the names match `BENCHMARK.json`.

use crate::trace::Recorder;
use crate::workload::{run_round, Workload};
use crate::{counts, timed_run, traced_run, Report};

/// A JSON value, enough to read the result line and `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(word.as_bytes()));
        self.i += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// Every workload's shape scaled down to seconds of work.
fn reduced(wl: &Workload) -> Workload {
    Workload {
        inner_docs: 400,
        outer_docs: 40,
        terms_per_doc: 20.0,
        vocab: 2_000,
        buffer_pages: wl.buffer_pages.min(48),
        deletes_per_round: 40,
        inserts_per_round: 80,
        ..wl.clone()
    }
}

/// Metric names of the result line, after checking each metric's shape.
fn metric_names(report: &Report) -> Vec<String> {
    let line = Parser::parse(&report.json());
    assert_eq!(
        line.get("correct"),
        &Json::Bool(true),
        "{:?}",
        report.failures
    );
    assert_eq!(line.get("failed"), &Json::Num(0.0));
    assert!(matches!(line.get("attempted"), Json::Num(n) if *n >= 1.0));
    let Json::Obj(metrics) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Json::Obj(fields) = m else {
                panic!("{name} is not an object")
            };
            assert_eq!(fields.len(), 2, "{name}");
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{name}"
            );
            assert!(
                matches!(m.get("unit"), Json::Str(u) if !u.is_empty()),
                "{name}"
            );
            name.clone()
        })
        .collect()
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
            _ => panic!("bad {section} entry"),
        })
        .collect()
}

fn units(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .0
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn deterministic_counts_repeat_exactly() {
    for wl in crate::workload::WORKLOADS.iter().map(reduced) {
        let rec = Recorder::new(String::new(), false);
        let a = run_round(&wl, 7, &rec, true, None).unwrap();
        let b = run_round(&wl, 7, &rec, false, None).unwrap();
        assert!(a.failures.is_empty(), "{}: {:?}", wl.name, a.failures);
        assert!(b.failures.is_empty(), "{}: {:?}", wl.name, b.failures);
        assert_eq!(counts(&a), counts(&b), "{}", wl.name);
        let c = run_round(&wl, 8, &rec, false, None).unwrap();
        assert_ne!(
            counts(&a),
            counts(&c),
            "{}: the seed must change the inputs",
            wl.name
        );
    }
}

#[test]
fn result_lines_parse_and_match_the_declared_metrics() {
    let wl = reduced(&Workload::by_name("churn").unwrap());
    let timed = timed_run(&wl, 7, 0).unwrap();
    let traced = traced_run(&wl, 7, None).unwrap();
    assert_eq!(
        metric_names(&timed),
        units(&timed).into_iter().map(|x| x.0).collect::<Vec<_>>()
    );
    metric_names(&traced);
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(units(&timed)), sorted(declared("end_to_end")));
    assert_eq!(sorted(units(&traced)), sorted(declared("per_layer")));
}

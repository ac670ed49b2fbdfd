//! What every `repro` experiment returns: a [`Report`] — a titled table
//! of typed cells, the head of its `--out` document, and named gates.
//! [`Report::table`] and [`Report::document`] are the only places a
//! result becomes text or JSON; the `repro` binary prints the one,
//! writes the other and turns a failed gate into exit 1.

use f90d_core::RunTrace;
use serde::json::Json;

/// A grid shape as text: `4x4`.
pub(crate) fn shape_text(dims: &[i64]) -> String {
    let dims: Vec<String> = dims.iter().map(i64::to_string).collect();
    dims.join("x")
}

/// One table cell: how it reads in the tab-separated table, and the
/// value it is in the `--out` document.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Verbatim text; a JSON string.
    Text(String),
    /// A count.
    Int(u64),
    /// Shortest round-trip decimal in the table (the matrix's bit-exact
    /// virtual seconds).
    Num(f64),
    /// That many decimals in the table, full precision in the document.
    Fixed(f64, usize),
    /// `1.23x` in the table.
    Ratio(f64),
    /// `yes` / `NO` in the table, a JSON bool.
    Flag(bool),
    /// A grid shape: `4x4` in the table, `[4, 4]` in the document.
    Shape(Vec<i64>),
    /// PRINT output: an array of strings (document-only columns).
    Lines(Vec<String>),
}

impl Val {
    fn text(&self) -> String {
        match self {
            Val::Text(s) => s.clone(),
            Val::Int(n) => n.to_string(),
            Val::Num(x) => x.to_string(),
            Val::Fixed(x, prec) => format!("{x:.prec$}"),
            Val::Ratio(x) => format!("{x:.2}x"),
            Val::Flag(b) => if *b { "yes" } else { "NO" }.into(),
            Val::Shape(dims) => shape_text(dims),
            Val::Lines(lines) => lines.join(" | "),
        }
    }

    fn json(&self) -> Json {
        match self {
            Val::Text(s) => Json::Str(s.clone()),
            Val::Int(n) => Json::Num(*n as f64),
            Val::Num(x) | Val::Fixed(x, _) | Val::Ratio(x) => Json::Num(*x),
            Val::Flag(b) => Json::Bool(*b),
            Val::Shape(dims) => Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect()),
            Val::Lines(lines) => Json::Arr(lines.iter().cloned().map(Json::Str).collect()),
        }
    }
}

/// A named pass/fail claim of a report. A failed gate prints `# detail`
/// on stderr and makes `repro` exit 1; a passed one prints `  detail` on
/// stdout unless the detail is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is held.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The line to print for this outcome.
    pub detail: String,
}

/// One experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Table title (`""`: the table has no title line).
    pub title: String,
    columns: Vec<(&'static str, &'static str)>,
    rows: Vec<Vec<Val>>,
    /// Stdout lines that follow the table, verbatim.
    pub notes: Vec<String>,
    /// Stderr commentary (wall clock, cache statistics), verbatim.
    pub log: Vec<String>,
    /// Head of the `--out` document, `schema` first; the rows follow it
    /// under [`Report::rows_key`].
    pub meta: Vec<(&'static str, Json)>,
    /// Document key of the row array.
    pub rows_key: &'static str,
    /// The claims this run was held to.
    pub gates: Vec<Gate>,
}

/// A [`Report`] under construction over rows of type `R`: add columns
/// with [`Table::col`], finish with [`Table::done`].
pub struct Table<'r, R> {
    source: &'r [R],
    report: Report,
}

impl<R> Table<'_, R> {
    /// Add a column: its table `header` (`""` keeps it out of the
    /// table), its `key` in a row's document object (`""` keeps it out
    /// of the document; `group.name` nests it in an object `group`), and
    /// the cell of a row.
    pub fn col(
        mut self,
        header: &'static str,
        key: &'static str,
        cell: impl Fn(&R) -> Val,
    ) -> Self {
        self.report.columns.push((header, key));
        for (cells, row) in self.report.rows.iter_mut().zip(self.source) {
            cells.push(cell(row));
        }
        self
    }

    /// One document-only count column per [`RunTrace::counters`] entry
    /// whose name starts with `prefix`, under that name.
    pub fn counters(mut self, prefix: &str, trace: impl Fn(&R) -> &RunTrace) -> Self {
        for (i, (name, _)) in RunTrace::default().counters().into_iter().enumerate() {
            if name.starts_with(prefix) {
                self = self.col("", name, |r| Val::Int(trace(r).counters()[i].1));
            }
        }
        self
    }

    /// The report, with no notes, document head or gates yet.
    pub fn done(self) -> Report {
        self.report
    }
}

impl Report {
    /// Start a report whose table has one row per element of `rows`.
    pub fn of<R>(title: impl Into<String>, rows: &[R]) -> Table<'_, R> {
        let report = Report {
            title: title.into(),
            columns: Vec::new(),
            rows: vec![Vec::new(); rows.len()],
            notes: Vec::new(),
            log: Vec::new(),
            meta: Vec::new(),
            rows_key: "rows",
            gates: Vec::new(),
        };
        Table {
            source: rows,
            report,
        }
    }

    /// Add a gate: `held` is the stdout line when it passes (may be
    /// empty), `violated` the stderr line when it fails.
    pub fn gate(&mut self, name: &'static str, pass: bool, held: &str, violated: String) {
        let detail = if pass { held.to_string() } else { violated };
        self.gates.push(Gate { name, pass, detail });
    }

    /// The stdout view: title, tab-separated header and rows, notes.
    pub fn table(&self) -> String {
        let shown = |cells: Vec<String>| {
            let kept: Vec<String> = (self.columns.iter().zip(cells))
                .filter(|((header, _), _)| !header.is_empty())
                .map(|(_, cell)| cell)
                .collect();
            kept.join("\t") + "\n"
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("\n== {} ==\n", self.title));
        }
        out.push_str(&shown(
            self.columns.iter().map(|(h, _)| h.to_string()).collect(),
        ));
        for row in &self.rows {
            out.push_str(&shown(row.iter().map(Val::text).collect()));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The `--out` document: [`Report::meta`], then one object per row.
    pub fn document(&self) -> Json {
        let rows = self.rows.iter().map(|row| {
            let mut obj: Vec<(String, Json)> = Vec::new();
            for ((_, key), cell) in self.columns.iter().zip(row) {
                if key.is_empty() {
                    continue;
                }
                match key.split_once('.') {
                    None => obj.push((key.to_string(), cell.json())),
                    Some((group, name)) => {
                        if obj.last().is_none_or(|(k, _)| k != group) {
                            obj.push((group.to_string(), Json::Obj(Vec::new())));
                        }
                        let Some((_, Json::Obj(members))) = obj.last_mut() else {
                            unreachable!("the group object was just ensured")
                        };
                        members.push((name.to_string(), cell.json()));
                    }
                }
            }
            Json::Obj(obj)
        });
        let mut doc: Vec<(String, Json)> = (self.meta.iter())
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        doc.push((self.rows_key.to_string(), Json::Arr(rows.collect())));
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_document_take_their_own_columns_in_order() {
        let rows = [("a", 1.5, 2u64), ("b", 0.25, 3)];
        let mut rep = Report::of("T", &rows)
            .col("name", "name", |r| Val::Text(r.0.into()))
            .col("ms", "", |r| Val::Fixed(r.1 * 1e3, 1))
            .col("", "t_s", |r| Val::Num(r.1))
            .col("", "k.n", |r| Val::Int(r.2))
            .col("", "k.twice", |r| Val::Int(2 * r.2))
            .col("ok", "ok", |r| Val::Flag(r.2 > 2))
            .done();
        rep.meta.push(("schema", Json::Str("t/v1".into())));
        rep.notes.push("  done".into());
        assert_eq!(
            rep.table(),
            "\n== T ==\nname\tms\tok\na\t1500.0\tNO\nb\t250.0\tyes\n  done\n"
        );
        let want = r#"{"schema":"t/v1","rows":[
            {"name":"a","t_s":1.5,"k":{"n":2,"twice":4},"ok":false},
            {"name":"b","t_s":0.25,"k":{"n":3,"twice":6},"ok":true}]}"#;
        assert_eq!(rep.document(), Json::parse(want).unwrap());
    }
}

//! Plain-text result tables, aligned for terminals and EXPERIMENTS.md,
//! and the by-name lookups the experiments' gates read them with: a
//! gate that names a missing table, row or column fails with that name.

use std::fmt;
use tfr_telemetry::Json;

/// One experiment's result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// One-line description of the claim being reproduced.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with the given id/title/columns.
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the columns.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity mismatch in {}",
            self.id
        );
        self.rows.push(cells);
        self
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Table {
        self.notes.push(note.into());
        self
    }

    /// The rows whose `col` cell equals `val` for every `(col, val)` key
    /// (all rows for no keys). An unknown column or an empty selection
    /// is an error naming it, so a gate can neither index out of range
    /// nor pass vacuously over zero rows.
    pub(crate) fn rows_where(&self, keys: &[(&str, &str)]) -> Result<Vec<Row<'_>>, String> {
        let mut by_index = Vec::with_capacity(keys.len());
        for &(col, val) in keys {
            by_index.push((self.column(col)?, val));
        }
        let rows: Vec<Row<'_>> = self
            .rows
            .iter()
            .filter(|cells| by_index.iter().all(|&(i, val)| cells[i] == val))
            .map(|cells| Row { table: self, cells })
            .collect();
        if rows.is_empty() {
            if keys.is_empty() {
                return Err(format!("{}: table has no rows", self.id));
            }
            let keys: Vec<String> = keys.iter().map(|(c, v)| format!("{c} = {v}")).collect();
            return Err(format!("{}: no row where {}", self.id, keys.join(", ")));
        }
        Ok(rows)
    }

    /// The first row of [`Table::rows_where`].
    pub(crate) fn row_where(&self, keys: &[(&str, &str)]) -> Result<Row<'_>, String> {
        Ok(self.rows_where(keys)?[0])
    }

    pub(crate) fn column(&self, col: &str) -> Result<usize, String> {
        self.columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| format!("{}: no column `{col}`", self.id))
    }

    /// The table as a machine-readable JSON value.
    ///
    /// Rows become objects keyed by the column headers, so downstream
    /// tooling does not need to track column order. Cells that parse as
    /// numbers are emitted as numbers; everything else stays a string.
    ///
    /// # Example
    ///
    /// ```
    /// use tfr_bench::table::Table;
    /// use tfr_telemetry::Json;
    ///
    /// let mut t = Table::new("E0", "demo", &["n", "ψ"]);
    /// t.row(vec!["2".into(), "1.00".into()]);
    /// let json = t.to_json();
    /// let rows = json.get("rows").unwrap().as_arr().unwrap();
    /// assert_eq!(rows[0].get("n").unwrap().as_num(), Some(2.0));
    /// // The output is valid JSON: it parses back to the same value.
    /// assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    /// ```
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.columns
                        .iter()
                        .zip(row)
                        .map(|(col, cell)| (col.clone(), cell_to_json(cell)))
                        .collect(),
                )
            })
            .collect();
        Json::obj([
            ("id", Json::str(self.id)),
            ("title", Json::str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().map(Json::str).collect()),
            ),
            ("rows", Json::Arr(rows)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Numeric-looking cells become JSON numbers; all others stay strings.
fn cell_to_json(cell: &str) -> Json {
    match cell.parse::<f64>() {
        Ok(n) if n.is_finite() => Json::Num(n),
        _ => Json::str(cell),
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}: {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "| {} |", header.join(" | "))?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// The table with this id, or an error naming it.
pub(crate) fn by_id<'a>(tables: &'a [Table], id: &str) -> Result<&'a Table, String> {
    tables
        .iter()
        .find(|t| t.id == id)
        .ok_or_else(|| format!("no table {id}"))
}

/// One row of a [`Table`], read by column name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    table: &'a Table,
    cells: &'a [String],
}

impl<'a> Row<'a> {
    /// The cell under `col`, as text.
    pub(crate) fn text(&self, col: &str) -> Result<&'a str, String> {
        Ok(&self.cells[self.table.column(col)?])
    }

    /// The cell under `col`, as a number.
    pub(crate) fn num(&self, col: &str) -> Result<f64, String> {
        let cell = self.text(col)?;
        cell.parse()
            .map_err(|_| format!("`{col}` = {cell:?} is not a number in {self}"))
    }

    /// `Ok` if `held`, else the violated expectation with this row rendered.
    pub(crate) fn expect(&self, held: bool, expectation: &str) -> Result<(), String> {
        if held {
            Ok(())
        } else {
            Err(format!("expected {expectation} in {self}"))
        }
    }
}

impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells: Vec<String> = self
            .table
            .columns
            .iter()
            .zip(self.cells)
            .map(|(col, cell)| format!("{col} = {cell}"))
            .collect();
        write!(f, "{} row {{ {} }}", self.table.id, cells.join(", "))
    }
}

/// The verdict of one named gate over an experiment's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// `<table id>.<what must hold>`, e.g. `"E22b.flat_combining_speedup"`.
    pub name: &'static str,
    /// `Err` carries what was expected and the offending row.
    pub outcome: Result<(), String>,
}

/// Runs one gate's check under its name.
pub(crate) fn gate(name: &'static str, check: impl FnOnce() -> Result<(), String>) -> GateResult {
    GateResult {
        name,
        outcome: check(),
    }
}

/// Formats a tick count as a multiple of Δ with two decimals.
pub fn in_deltas(t: tfr_registers::Ticks, delta: tfr_registers::Delta) -> String {
    format!("{:.2}Δ", t.in_deltas(delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::{Delta, Ticks};

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("E0", "demo", &["n", "value"]);
        t.row(vec!["2".into(), "short".into()]);
        t.row(vec!["16".into(), "much longer cell".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## E0: demo"));
        assert!(s.contains("| n  | value"));
        assert!(s.contains("note: a note"));
        // All data lines share the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn delta_formatting() {
        assert_eq!(in_deltas(Ticks(1500), Delta::from_ticks(1000)), "1.50Δ");
    }

    #[test]
    fn json_keeps_strings_and_numbers_apart() {
        let mut t = Table::new("E9", "json demo", &["algo", "ticks"]);
        t.row(vec!["fischer".into(), "1500".into()]);
        t.row(vec!["resilient".into(), "2.50Δ".into()]);
        t.note("a note");
        let json = t.to_json();
        assert_eq!(json.get("id").unwrap().as_str(), Some("E9"));
        let rows = json.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("algo").unwrap().as_str(), Some("fischer"));
        assert_eq!(rows[0].get("ticks").unwrap().as_num(), Some(1500.0));
        // "2.50Δ" is not a number: it survives as a string.
        assert_eq!(rows[1].get("ticks").unwrap().as_str(), Some("2.50Δ"));
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn lookups_name_what_is_missing() {
        let mut t = Table::new("E9", "lookup demo", &["algo", "ticks"]);
        let tables = [t.clone()];
        assert_eq!(by_id(&tables, "E8").unwrap_err(), "no table E8");
        assert_eq!(t.rows_where(&[]).unwrap_err(), "E9: table has no rows");
        t.row(vec!["fischer".into(), "1500".into()]);
        t.row(vec!["resilient".into(), "2.50Δ".into()]);
        assert_eq!(t.rows_where(&[]).unwrap().len(), 2);
        assert_eq!(
            t.row_where(&[("algo", "bakery")]).unwrap_err(),
            "E9: no row where algo = bakery"
        );
        assert_eq!(
            t.row_where(&[("lock", "fischer")]).unwrap_err(),
            "E9: no column `lock`"
        );
        let fischer = t.row_where(&[("algo", "fischer")]).unwrap();
        assert_eq!(fischer.num("ticks"), Ok(1500.0));
        assert_eq!(fischer.text("algo"), Ok("fischer"));
        assert_eq!(fischer.text("tocks").unwrap_err(), "E9: no column `tocks`");
        let resilient = t.row_where(&[("algo", "resilient")]).unwrap();
        let not_a_number = resilient.num("ticks").unwrap_err();
        assert!(
            not_a_number.contains("`ticks` = \"2.50Δ\""),
            "{not_a_number}"
        );
        assert_eq!(
            fischer.expect(false, "ticks < 1000").unwrap_err(),
            "expected ticks < 1000 in E9 row { algo = fischer, ticks = 1500 }"
        );
    }
}

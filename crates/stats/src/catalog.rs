//! Extent statistics, computed when asked for.
//!
//! Nothing here is maintained: a [`Tally`] is fed the rows of one pass
//! over the store (the rows of one carried type, or of every type an
//! extent admits) and counts them exactly into [`ExtentStats`]: rows,
//! fully-ground rows, and per *definite path* — every leaf path
//! reachable by record-only descent, depth-capped at
//! [`MAX_PATH_DEPTH`] — how many rows have it, how many of those have a
//! ground scalar there (a join can hoist the path only then), and how
//! many distinct values it takes. A carried type's statistics are those
//! of the extent of exactly that type.

use dbpl_types::Type;
use dbpl_values::{Label, Path, Value};
use std::collections::{BTreeMap, HashSet};

/// Record-only descent stops below this depth; a record nested deeper
/// is treated as an (opaque, non-ground) leaf. Keeps the tracked path
/// set small and deterministic.
pub const MAX_PATH_DEPTH: usize = 4;

/// Statistics for one definite path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathStats {
    /// Rows in which the path exists.
    pub present: u64,
    /// Rows in which the path's leaf is a ground scalar (joinable key).
    pub ground: u64,
    /// Distinct leaf values at the path.
    pub distinct: u64,
}

/// The statistics of an extent: over the rows of every carried type
/// that is a subtype of its bound.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentStats {
    /// Total rows across contributing types.
    pub rows: u64,
    /// Rows all of whose leaves are ground scalars.
    pub ground_rows: u64,
    /// Subtype fan-out: how many distinct carried types contribute.
    pub fanout: u64,
    /// Per-path statistics over all contributing rows.
    pub paths: BTreeMap<Path, PathStats>,
}

/// Per carried type with rows, its statistics.
pub type StatsCatalog = BTreeMap<Type, ExtentStats>;

/// Is this leaf value a ground scalar — the same judgement the
/// partitioned join's path hoisting uses (unit, bool, int, float,
/// string, or an object reference; never a collection, variant,
/// dynamic, or record)?
pub fn is_ground_leaf(v: &Value) -> bool {
    matches!(
        v,
        Value::Unit
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Ref(_)
    )
}

/// Record-only descent: calls `f` with each leaf's path (a borrowed
/// label slice — no `Path` allocated per leaf) and the leaf value.
/// Every non-record value (and every record at [`MAX_PATH_DEPTH`]) is a
/// leaf; a non-record top-level value is the single leaf at the root.
fn walk_leaves<'a>(
    v: &'a Value,
    depth: usize,
    prefix: &mut Vec<Label>,
    f: &mut impl FnMut(&[Label], &'a Value),
) {
    match v {
        Value::Record(fields) if depth < MAX_PATH_DEPTH && !fields.is_empty() => {
            for (k, x) in fields {
                prefix.push(*k);
                walk_leaves(x, depth + 1, prefix, f);
                prefix.pop();
            }
        }
        _ => f(prefix, v),
    }
}

/// Render a path for statistics output: `$` for the root path (a bare
/// scalar row), the dotted form otherwise.
fn path_display(p: &Path) -> String {
    if p.is_root() {
        "$".to_string()
    } else {
        p.to_string()
    }
}

/// The entry for `path` in `map`, made on first use: the path is
/// copied only when it is new.
fn entry<'m, T: Default>(map: &'m mut BTreeMap<Path, T>, path: &[Label]) -> &'m mut T {
    if !map.contains_key(path) {
        map.insert(Path(path.to_vec()), T::default());
    }
    map.get_mut(path).expect("just ensured")
}

/// The exact statistics of a row set, counted in one pass: feed it each
/// row with [`Tally::add`], then take the result.
#[derive(Default)]
pub struct Tally<'a> {
    stats: ExtentStats,
    /// Per path, the distinct leaf values, borrowed from the rows.
    values: BTreeMap<Path, HashSet<&'a Value>>,
}

impl<'a> Tally<'a> {
    /// Count one row's value.
    pub fn add(&mut self, row: &'a Value) {
        let (stats, values) = (&mut self.stats, &mut self.values);
        let mut all_ground = true;
        walk_leaves(row, 0, &mut Vec::new(), &mut |path, v| {
            let ground = is_ground_leaf(v);
            all_ground &= ground;
            let ps = entry(&mut stats.paths, path);
            ps.present += 1;
            ps.ground += u64::from(ground);
            entry(values, path).insert(v);
        });
        stats.rows += 1;
        stats.ground_rows += u64::from(all_ground);
    }

    /// Rows counted so far.
    pub fn rows(&self) -> u64 {
        self.stats.rows
    }

    /// The rows' statistics, as an extent's fed by `fanout` carried types.
    pub fn finish(mut self, fanout: u64) -> ExtentStats {
        for (path, values) in self.values {
            self.stats.paths.get_mut(&path).expect("counted").distinct = values.len() as u64;
        }
        ExtentStats {
            fanout,
            ..self.stats
        }
    }
}

/// Human-readable rendering, one block per carried type — what the
/// `extentStats(db)` builtin prints.
pub fn render_catalog(catalog: &StatsCatalog) -> String {
    if catalog.is_empty() {
        return "statistics catalog: empty\n".to_string();
    }
    let rows: u64 = catalog.values().map(|s| s.rows).sum();
    let mut out = format!(
        "statistics catalog: {} carried type(s), {rows} row(s)\n",
        catalog.len()
    );
    for (ty, ts) in catalog {
        out.push_str(&format!(
            "  {ty}: rows={} ground_rows={}\n",
            ts.rows, ts.ground_rows
        ));
        for (p, ps) in &ts.paths {
            out.push_str(&format!(
                "    {}: present={} ground={} distinct={}\n",
                path_display(p),
                ps.present,
                ps.ground,
                ps.distinct
            ));
        }
    }
    out
}

/// Render an extent's statistics as one `dbpl.workload.v1` JSONL line:
/// `{"extent":...,"rows":...,"ground_rows":...,"fanout":...,"paths":{...}}`.
pub fn extent_json(name: &str, e: &ExtentStats) -> String {
    let mut out = format!(
        "{{\"extent\":\"{}\",\"rows\":{},\"ground_rows\":{},\"fanout\":{},\"paths\":{{",
        dbpl_obs::json_escape(name),
        e.rows,
        e.ground_rows,
        e.fanout
    );
    for (i, (p, ps)) in e.paths.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"present\":{},\"ground\":{},\"distinct\":{}}}",
            dbpl_obs::json_escape(&path_display(p)),
            ps.present,
            ps.ground,
            ps.distinct
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person(name: &str, city: &str) -> Value {
        Value::record([
            ("Name", Value::str(name)),
            ("Address", Value::record([("City", Value::str(city))])),
        ])
    }

    fn tally<'a>(rows: impl IntoIterator<Item = &'a Value>) -> ExtentStats {
        let mut t = Tally::default();
        for r in rows {
            t.add(r);
        }
        t.finish(1)
    }

    #[test]
    fn counts_rows_paths_groundness_and_distinct_values() {
        let rows = [person("a", "x"), person("b", "x"), person("a", "y")];
        let ts = tally(&rows);
        assert_eq!((ts.rows, ts.ground_rows), (3, 3));
        let name = &ts.paths[&Path::parse("Name")];
        assert_eq!((name.present, name.ground, name.distinct), (3, 3, 2));
        let city = &ts.paths[&Path::parse("Address.City")];
        assert_eq!(city.distinct, 2);
    }

    #[test]
    fn non_ground_leaves_are_counted_but_not_ground() {
        let row = Value::record([("Tags", Value::List(vec![Value::str("x")]))]);
        let ts = tally([&row]);
        assert_eq!((ts.rows, ts.ground_rows), (1, 0));
        let tags = &ts.paths[&Path::parse("Tags")];
        assert_eq!((tags.present, tags.ground, tags.distinct), (1, 0, 1));
    }

    #[test]
    fn scalar_rows_live_at_the_root_path() {
        let rows = [Value::Int(7), Value::Int(7)];
        let root = &tally(&rows).paths[&Path::default()];
        assert_eq!((root.present, root.ground, root.distinct), (2, 2, 1));
        assert_eq!(path_display(&Path::default()), "$");
    }

    #[test]
    fn descent_is_depth_capped() {
        let mut v = Value::record::<[(&str, Value); 0], &str>([]);
        dbpl_values::put_path(&mut v, &Path::parse("A.B.C.D.E"), Value::Int(1)).unwrap();
        let ts = tally([&v]);
        assert_eq!(
            ts.paths.keys().collect::<Vec<_>>(),
            [&Path::parse("A.B.C.D")]
        );
        assert_eq!(
            ts.ground_rows, 0,
            "the capped leaf is a record, hence not ground"
        );
    }

    #[test]
    fn extent_json_line_shape() {
        let line = extent_json("Person", &tally([&person("a", "x")]));
        assert!(line.starts_with("{\"extent\":\"Person\",\"rows\":1,"));
        assert!(line.contains("\"fanout\":1"));
        assert!(line.contains("\"Address.City\":{\"present\":1,\"ground\":1,\"distinct\":1}"));
        dbpl_obs::json::parse(&line).expect("extent line is valid JSON");
    }

    #[test]
    fn render_mentions_every_type() {
        let (p, i) = (person("a", "x"), Value::Int(1));
        let c = StatsCatalog::from([
            (Type::named("Person"), tally([&p])),
            (Type::Int, tally([&i])),
        ]);
        let r = render_catalog(&c);
        assert!(r.contains("Person") && r.contains("Int"));
        assert!(r.contains("distinct=1"));
        assert!(render_catalog(&StatsCatalog::new()).contains("empty"));
    }
}

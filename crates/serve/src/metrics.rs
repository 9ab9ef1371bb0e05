//! The `METRICS` text exposition: a Prometheus-style rendering of a
//! [`StatsSnapshot`], and the strict parser that gives the snapshot back.
//! Both walk the ledger's one name table ([`SERIES`], [`TENANT_SERIES`],
//! [`Phase::ALL`]). A parsed scrape is checked with
//! [`StatsSnapshot::check`], the same law `serve` checks on its drained
//! ledger — `oblivion top --check`, the soak tests and the `exp_serve*`
//! binaries all call it.
//!
//! Grammar (a strict subset of the Prometheus text format):
//!
//! ```text
//! # TYPE <name> counter|gauge|histogram
//! <name> <integer>                        (counter/gauge samples)
//! <name>{mesh="<id>"} <integer>           (per-tenant samples)
//! <name>_bucket{le="<edge>"} <cum-count>  (histogram, cumulative)
//! <name>_bucket{le="+Inf"} <count>
//! <name>_sum <integer>
//! <name>_count <integer>
//! # EOF
//! ```
//!
//! The final `# EOF` line doubles as a truncation guard: a scrape that
//! lost its tail (killed server, cut socket) fails the parse instead of
//! passing with quietly missing series. Every series must be present,
//! each sample once; an unknown series fails the parse too. The round
//! trip is exact except for histogram `min`/`max`, which degrade to the
//! bucket edges the wire carries (so quantiles still resolve to the
//! same bucket).

use crate::stats::{Phase, Series, StatsSnapshot, TenantSnapshot, SERIES, TENANT_SERIES};
use crate::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Prefix every exposed series name carries.
const PREFIX: &str = "oblivion_serve_";

/// Renders the exposition for one snapshot. `uptime` becomes the
/// `oblivion_serve_uptime_ms` gauge so scrapers can turn cumulative
/// counters into rates without wall-clock math of their own.
pub fn render_exposition(snap: &StatsSnapshot, uptime: Duration) -> String {
    let mut out = String::new();
    for s in &SERIES {
        let _ = writeln!(out, "# TYPE {PREFIX}{} {}", s.name, s.kind.word());
        let _ = writeln!(out, "{PREFIX}{} {}", s.name, (s.get)(snap));
    }
    let _ = writeln!(out, "# TYPE {PREFIX}uptime_ms gauge");
    let _ = writeln!(
        out,
        "{PREFIX}uptime_ms {}",
        uptime.as_millis().min(i64::MAX as u128)
    );
    // Per-tenant rows: one `{mesh="<id>"}` labeled sample per tenant
    // under a shared TYPE declaration.
    if !snap.tenants.is_empty() {
        for s in &TENANT_SERIES {
            let _ = writeln!(out, "# TYPE {PREFIX}{} {}", s.name, s.kind.word());
            for t in &snap.tenants {
                let _ = writeln!(
                    out,
                    "{PREFIX}{}{{mesh=\"{}\"}} {}",
                    s.name,
                    t.id,
                    (s.get)(t)
                );
            }
        }
    }
    for phase in Phase::ALL {
        let name = format!("{PREFIX}{}", phase.series());
        let hist = snap.phase(phase);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cum += count;
            let (_, hi) = Histogram::bucket_range(i);
            let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out.push_str("# EOF\n");
    out
}

/// Parses a `METRICS` exposition back into the snapshot and uptime it
/// was rendered from (see the module docs for what "strict" means).
pub fn parse_exposition(text: &str) -> Result<(StatsSnapshot, Duration), String> {
    let mut wire = Wire::default();
    let mut saw_eof = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        let at = |msg: String| format!("line {}: {msg}", idx + 1);
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(at("data after # EOF".into()));
        }
        if line == "# EOF" {
            saw_eof = true;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_ascii_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(name), Some(kind @ ("counter" | "gauge" | "histogram")), None) => {
                    wire.kinds.insert(name, kind);
                }
                _ => return Err(at(format!("malformed `{line}`"))),
            }
        } else if !line.starts_with('#') {
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| at("sample line without a value".into()))?;
            let value = value
                .parse::<i128>()
                .map_err(|e| at(format!("bad value for {name}: {e}")))?;
            if wire.samples.insert(name, value).is_some() {
                return Err(at(format!("duplicate sample {name}")));
            }
        }
    }
    if !saw_eof {
        return Err("exposition truncated: missing # EOF terminator".into());
    }
    let mut snap = StatsSnapshot::default();
    for s in &SERIES {
        wire.scalar(s, &mut snap, "")?;
    }
    let uptime = wire.take("uptime_ms", "", "gauge")?;
    let uptime = u64::try_from(uptime).map_err(|_| format!("negative uptime {uptime}"))?;
    let rows = format!("{PREFIX}{}{{mesh=\"", TENANT_SERIES[0].name);
    let mut ids: Vec<String> = (wire.samples.keys())
        .filter_map(|k| {
            Some(
                k.strip_prefix(rows.as_str())?
                    .strip_suffix("\"}")?
                    .to_string(),
            )
        })
        .collect();
    ids.sort_unstable();
    for id in ids {
        let label = format!("{{mesh=\"{id}\"}}");
        let mut t = TenantSnapshot {
            id,
            ..TenantSnapshot::default()
        };
        for s in &TENANT_SERIES {
            wire.scalar(s, &mut t, &label)?;
        }
        snap.tenants.push(t);
    }
    for phase in Phase::ALL {
        snap.phases[phase as usize] = (phase.name(), wire.histogram(&phase.series())?);
    }
    if let Some(name) = wire.samples.keys().next() {
        return Err(format!("unknown series {name}"));
    }
    Ok((snap, Duration::from_millis(uptime)))
}

/// A tokenized exposition the parser consumes series by series: what is
/// left once the tables are walked is unknown.
#[derive(Default)]
struct Wire<'a> {
    /// `# TYPE` declarations: full series name to kind word.
    kinds: BTreeMap<&'a str, &'a str>,
    /// Samples by full name (labels and suffixes included).
    samples: BTreeMap<&'a str, i128>,
}

impl Wire<'_> {
    /// Removes the sample `oblivion_serve_<series><suffix>`, whose series
    /// must be declared `kind`.
    fn take(&mut self, series: &str, suffix: &str, kind: &str) -> Result<i128, String> {
        let name = format!("{PREFIX}{series}");
        match self.kinds.get(name.as_str()) {
            Some(&k) if k == kind => {}
            Some(k) => return Err(format!("series {name} is declared {k}, not {kind}")),
            None => return Err(format!("series {name} has no # TYPE {kind} declaration")),
        }
        (self.samples.remove(format!("{name}{suffix}").as_str()))
            .ok_or_else(|| format!("exposition is missing {name}{suffix}"))
    }

    /// Moves one table row's sample into `into`.
    fn scalar<T>(&mut self, s: &Series<T>, into: &mut T, label: &str) -> Result<(), String> {
        let v = self.take(s.name, label, s.kind.word())?;
        if (s.set)(into, v) {
            Ok(())
        } else {
            Err(format!("{PREFIX}{}{label} {v} is out of range", s.name))
        }
    }

    /// Rebuilds a histogram from its cumulative buckets: each finite edge
    /// must be a bucket's upper edge, edges strictly increase, and the
    /// last cumulative count, the `+Inf` row and `_count` agree.
    fn histogram(&mut self, series: &str) -> Result<Histogram, String> {
        let count = self.take(series, "_count", "histogram")?;
        let sum = self.take(series, "_sum", "histogram")?;
        let inf = self.take(series, "_bucket{le=\"+Inf\"}", "histogram")?;
        let pre = format!("{PREFIX}{series}_bucket{{le=\"");
        let keys: Vec<&str> = (self.samples.range(pre.as_str()..))
            .map(|(k, _)| *k)
            .take_while(|k| k.starts_with(&pre))
            .collect();
        let mut rows = Vec::with_capacity(keys.len());
        for key in keys {
            let cum = self.samples.remove(key).unwrap_or_default();
            let edge = key[pre.len()..]
                .strip_suffix("\"}")
                .and_then(|e| e.parse().ok());
            rows.push((edge.ok_or_else(|| format!("bad bucket {key}"))?, cum));
        }
        rows.sort_unstable();
        let mut hist = Histogram::new();
        let (mut prev, mut last) = (0i128, None);
        for (edge, cum) in rows {
            let i = Histogram::bucket_of(edge);
            if Histogram::bucket_range(i).1 != edge || last >= Some(i) || cum <= prev {
                return Err(format!("{PREFIX}{series}: bad bucket le=\"{edge}\" {cum}"));
            }
            hist.buckets[i] = (cum - prev) as u64;
            hist.min = hist.min.min(Histogram::bucket_range(i).0);
            hist.max = edge;
            (prev, last) = (cum, Some(i));
        }
        let bad =
            || format!("{PREFIX}{series}: count {count}, +Inf {inf}, buckets {prev}, sum {sum}");
        hist.count = u64::try_from(count).map_err(|_| bad())?;
        hist.sum = u64::try_from(sum).map_err(|_| bad())?;
        if inf != count || prev != count {
            return Err(bad());
        }
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Counter, ServeStats};

    fn busy_stats() -> ServeStats {
        let s = ServeStats::default();
        for i in 0..50u64 {
            s.conn_opened();
            let depth = s.enqueue_started();
            if i % 9 == 0 {
                s.shed_connection();
                s.conn_closed();
                continue;
            }
            s.enqueue_committed(depth);
            s.conn_dequeued();
            s.admit(1);
            s.record_phase(Phase::QueueWait, 10 + i);
            s.record_phase(Phase::Parse, 2);
            s.record_phase(Phase::RouteCompute, 100 + i * 3);
            s.record_phase(Phase::ReplyWrite, 5);
            s.settle_batch(
                if i % 11 == 0 {
                    Counter::DeadlineExceeded
                } else {
                    Counter::Completed
                },
                1,
            );
            s.conn_closed();
        }
        // Leave some live state on the books: the scrape must conserve
        // anyway.
        s.conn_opened();
        s.enqueue_started();
        s.conn_opened();
        s.enqueue_started();
        s.conn_dequeued();
        s.admit(2);
        s
    }

    #[test]
    fn exposition_round_trips_and_conserves() {
        let snap = busy_stats().snapshot();
        let text = render_exposition(&snap, Duration::from_millis(1234));
        let (back, uptime) = parse_exposition(&text).expect("parse");
        assert_eq!(back.check(), Ok(()));
        assert_eq!(uptime, Duration::from_millis(1234));
        assert_eq!(back.accepted, 52);
        assert_eq!(
            (back.connections, back.queue_depth, back.in_flight),
            (2, 1, 2)
        );
        assert_eq!(render_exposition(&back, uptime), text);
        let (direct, wired) = (
            snap.phase(Phase::RouteCompute),
            back.phase(Phase::RouteCompute),
        );
        assert_eq!(
            (wired.count, wired.sum, wired.buckets),
            (direct.count, direct.sum, direct.buckets)
        );
    }

    #[test]
    fn quantiles_survive_the_wire_format() {
        let stats = ServeStats::default();
        for us in [10u64, 20, 30, 40, 50, 5000] {
            stats.admit(1);
            stats.record_phase(Phase::RouteCompute, us);
            stats.settle_batch(Counter::Completed, 1);
        }
        let snap = stats.snapshot();
        let text = render_exposition(&snap, Duration::ZERO);
        let (back, _) = parse_exposition(&text).unwrap();
        let (direct, wired) = (
            snap.phase(Phase::RouteCompute),
            back.phase(Phase::RouteCompute),
        );
        assert_eq!(wired.count, 6);
        assert_eq!(wired.quantile(0.5), direct.quantile(0.5));
    }

    #[test]
    fn truncated_scrape_fails_the_parse() {
        let text = render_exposition(&busy_stats().snapshot(), Duration::ZERO);
        let cut = &text[..text.len() / 2];
        assert!(parse_exposition(cut).is_err());
        let no_eof = text.replace("# EOF\n", "");
        assert!(parse_exposition(&no_eof).is_err());
    }

    #[test]
    fn missing_unknown_and_garbage_series_are_rejected() {
        let text = render_exposition(&busy_stats().snapshot(), Duration::ZERO);
        let without = |series: &str| -> String {
            (text.lines())
                .filter(|l| !l.starts_with(series))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let err = parse_exposition(&without("oblivion_serve_chaos_resets ")).unwrap_err();
        assert!(err.contains("missing oblivion_serve_chaos_resets"), "{err}");
        let err = parse_exposition(&without("oblivion_serve_open_conns ")).unwrap_err();
        assert!(err.contains("open_conns"), "{err}");
        let err = parse_exposition(&without("oblivion_serve_phase_parse_us_sum")).unwrap_err();
        assert!(err.contains("phase_parse_us_sum"), "{err}");
        let extra = text.replace("# EOF", "# TYPE mystery counter\nmystery 4\n# EOF");
        assert!(parse_exposition(&extra)
            .unwrap_err()
            .contains("unknown series mystery"));
        let twice = text.replace("# EOF", "oblivion_serve_accepted 52\n# EOF");
        assert!(parse_exposition(&twice).unwrap_err().contains("duplicate"));
        let retyped = text.replace("accepted counter", "accepted gauge");
        assert!(parse_exposition(&retyped)
            .unwrap_err()
            .contains("declared gauge"));
        let negative = text.replace(
            "\noblivion_serve_completed ",
            "\noblivion_serve_completed -",
        );
        assert!(parse_exposition(&negative)
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_exposition("mystery 4\n# EOF\n").is_err());
        assert!(parse_exposition("# TYPE x wibble\nx 1\n# EOF\n").is_err());
        assert!(parse_exposition("# TYPE x counter\nx notanumber\n# EOF\n").is_err());
        assert!(parse_exposition("# EOF\ntrailing 1\n").is_err());
        // Plain comments are fine.
        let commented = text.replacen("# TYPE", "# HELP anything\n# TYPE", 1);
        assert!(parse_exposition(&commented).is_ok());
    }

    #[test]
    fn inconsistent_histograms_are_rejected() {
        let text = render_exposition(&busy_stats().snapshot(), Duration::ZERO);
        let count = "oblivion_serve_phase_parse_us_count";
        let bumped = text.replace(&format!("{count} 44"), &format!("{count} 45"));
        assert_ne!(bumped, text);
        assert!(parse_exposition(&bumped).is_err());
        let off_edge = text.replace("parse_us_bucket{le=\"3\"}", "parse_us_bucket{le=\"4\"}");
        assert_ne!(off_edge, text);
        assert!(parse_exposition(&off_edge).is_err());
    }
}

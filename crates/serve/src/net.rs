//! Minimal TCP line-protocol front-end.
//!
//! One request per line, one reply per line:
//!
//! ```text
//! → 0=3 1=2.5..9.0            # col 0 = 3  AND  col 1 ∈ [2.5, 9.0]
//! ← 0.127341
//! → 1=*..0.5                  # open lower bound
//! ← 0.480000
//! → VERSION                   # admin: active model version
//! ← 2 wisdm-retrained
//! → STATS                     # admin: metrics dump, terminated by END
//! ← requests_total 42
//! ← …
//! ← END
//! → STATS PROM                # same, Prometheus text exposition
//! ← # TYPE iam_serve_requests_total counter
//! ← iam_serve_requests_total 42
//! ← …
//! ← END
//! → TRACKED 0=3 1=2.5..9.0    # estimate + canonical query id (for REPORT)
//! ← 9577216733948907093 0.127341
//! → REPORT 9577216733948907093 1250   # true count observed by the client
//! ← OK 1.373200                       # resolved q-error
//! → SQL SELECT COUNT(*) FROM t WHERE c0=3   # SQL subset (see crate::sql)
//! ← COUNT 1273.410000 SEL 0.127341 NROWS 10000
//! → QUIT                      # close the connection
//! ```
//!
//! Query grammar: whitespace-separated terms, each `col=value` (point
//! constraint) or `col=lo..hi` (closed range; either bound may be `*` for
//! unbounded). Repeated terms for one column intersect. Malformed lines get
//! `ERR <reason>` and the connection stays open.
//!
//! `TRACKED`/`REPORT` form the accuracy feedback loop: `TRACKED` answers
//! like a query line but prefixes the reply with the query's canonical id
//! (the same [`RangeQuery::canonical_key`] the cache and the sampler use),
//! and `REPORT <qid> <true_count>` resolves that id's sampled record into
//! a q-error observation (see `iam_obs::qerror`). A `REPORT` whose qid was
//! never sampled — tracking disabled, record evicted, or a bogus id —
//! answers `ERR no record for qid`, counted but never fatal.

use crate::error::ServeError;
use crate::service::Client;
use iam_data::{Interval, RangeQuery};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Longest accepted protocol line (bytes, newline included). Longer lines
/// get an `ERR line too long` reply and the connection is closed — a
/// stream that long is not a query, it is garbage or abuse, and draining
/// it line-less could buffer unbounded input.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How often a blocked connection read wakes up to re-check the stop flag.
const CONN_POLL: Duration = Duration::from_millis(50);

/// Parse one protocol line into a [`RangeQuery`] over `ncols` columns.
pub fn parse_query(line: &str, ncols: usize) -> Result<RangeQuery, ServeError> {
    let bad = |m: String| ServeError::BadQuery(m);
    let mut rq = RangeQuery::unconstrained(ncols);
    let mut terms = 0usize;
    for term in line.split_whitespace() {
        terms += 1;
        if term == "*" {
            // wildcard term: no constraint (this is what `render_query`
            // emits for an unconstrained query, so it must re-parse)
            continue;
        }
        let (col_s, range_s) =
            term.split_once('=').ok_or_else(|| bad(format!("expected col=range, got {term:?}")))?;
        let col: usize = col_s.parse().map_err(|_| bad(format!("bad column index {col_s:?}")))?;
        if col >= ncols {
            return Err(bad(format!("column {col} out of range (model has {ncols})")));
        }
        let parse_bound = |s: &str, open: f64| -> Result<f64, ServeError> {
            if s == "*" {
                return Ok(open);
            }
            let v: f64 = s.parse().map_err(|_| bad(format!("bad number {s:?}")))?;
            if v.is_nan() {
                return Err(bad("NaN bound".into()));
            }
            Ok(v)
        };
        let iv = match range_s.split_once("..") {
            Some((lo_s, hi_s)) => Interval::closed(
                parse_bound(lo_s, f64::NEG_INFINITY)?,
                parse_bound(hi_s, f64::INFINITY)?,
            ),
            None if range_s == "*" => {
                return Err(bad("point constraint cannot be open (*)".into()))
            }
            None => Interval::point(parse_bound(range_s, 0.0)?),
        };
        rq.cols[col] = Some(match rq.cols[col].take() {
            Some(prev) => prev.intersect(&iv),
            None => iv,
        });
    }
    if terms == 0 {
        return Err(bad("empty query".into()));
    }
    Ok(rq)
}

/// Render a query back into the line-protocol grammar, constrained columns
/// in index order — the canonical predicate text stored in q-error
/// records. Every output re-parses via [`parse_query`] to an equivalent
/// query:
///
/// * infinite *range* bounds render as `*`, and an unconstrained query
///   renders as the bare wildcard `*` (which `parse_query` accepts);
/// * a degenerate point at `±∞` renders as the literal `col=inf` /
///   `col=-inf` rather than the unparseable `col=*`;
/// * an *empty* interval (post-`intersect`, or emptied by strictness
///   flags) renders as the canonical empty range `col=inf..-inf`, which
///   re-parses to an interval that is again empty.
///
/// (Strictness flags, which the text grammar cannot express, are carried
/// by the canonical key, not the text: a re-parse preserves emptiness and
/// endpoint values, not strictness bits.)
pub fn render_query(rq: &RangeQuery) -> String {
    let mut out = String::new();
    let fmt_bound = |v: f64| {
        if v.is_infinite() {
            "*".to_string()
        } else {
            format!("{v}")
        }
    };
    for (col, iv) in rq.cols.iter().enumerate() {
        let Some(iv) = iv else { continue };
        if !out.is_empty() {
            out.push(' ');
        }
        if iv.is_empty() {
            out.push_str(&format!("{col}=inf..-inf"));
        } else if iv.lo == iv.hi {
            // `{}` prints f64s shortest-round-trip (incl. `inf`/`-inf`),
            // and `parse_query` accepts all of those as point values
            out.push_str(&format!("{col}={}", iv.lo));
        } else {
            out.push_str(&format!("{col}={}..{}", fmt_bound(iv.lo), fmt_bound(iv.hi)));
        }
    }
    if out.is_empty() {
        out.push('*');
    }
    out
}

/// A running TCP front-end. [`TcpFrontend::stop`] closes the listener
/// **and drains the connection handlers**: every handler polls the stop
/// flag between reads (via a socket read timeout), finishes the line it is
/// on, and exits; `stop` joins them all, so tests never leak threads and
/// rebinding the port cannot flake on address reuse (bind with port 0 in
/// tests regardless).
pub struct TcpFrontend {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TcpFrontend {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `client` over it.
    pub fn spawn<A: ToSocketAddrs>(client: Client, addr: A) -> io::Result<TcpFrontend> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
            std::thread::Builder::new()
                .name("iam-serve-accept".into())
                .spawn(move || accept_loop(listener, client, &stop, &conns))?
        };
        Ok(TcpFrontend { addr, stop, accept_thread, conns })
    }

    /// Close the listener, then join the accept loop and every connection
    /// handler thread (each notices the stop flag within `CONN_POLL`).
    pub fn stop(self) {
        self.stop.store(true, Relaxed);
        let _ = self.accept_thread.join();
        let handles: Vec<_> = {
            let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    client: Client,
    stop: &Arc<AtomicBool>,
    conns: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let client = client.clone();
                let stop = Arc::clone(stop);
                let handle =
                    std::thread::Builder::new().name("iam-serve-conn".into()).spawn(move || {
                        let _ = handle_connection(stream, &client, &stop);
                    });
                if let Ok(h) = handle {
                    let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
                    // join closed connections' threads so a long-lived
                    // front-end holds one handle per open connection
                    for done in conns.extract_if(.., |c| c.is_finished()) {
                        let _ = done.join();
                    }
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// Read one `\n`-terminated line into `line` (cleared first), tolerating
/// read timeouts so the handler can notice `stop` while idle; partially
/// read bytes accumulate across retries. Returns `Ok(false)` on clean
/// close, stop, or an over-long line (after replying `ERR`).
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    out: &mut BufWriter<TcpStream>,
    stop: &AtomicBool,
) -> io::Result<bool> {
    line.clear();
    loop {
        match reader.read_until(b'\n', line) {
            Ok(0) => return Ok(false), // peer closed
            Ok(_) if line.last() == Some(&b'\n') => return Ok(true),
            Ok(_) => continue, // more to come (read_until hit buffer edge)
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Relaxed) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if line.len() > MAX_LINE_BYTES {
            out.write_all(b"ERR line too long\n")?;
            out.flush()?;
            return Ok(false);
        }
    }
}

fn handle_connection(stream: TcpStream, client: &Client, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(CONN_POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut line = Vec::new();
    while read_line_bounded(&mut reader, &mut line, &mut out, stop)? {
        let trimmed = String::from_utf8_lossy(&line);
        let trimmed = trimmed.trim();
        if trimmed.is_empty() {
            continue;
        }
        match trimmed {
            "QUIT" => break,
            "STATS" => {
                out.write_all(client.metrics().render().as_bytes())?;
                out.write_all(b"END\n")?;
            }
            "STATS PROM" => {
                out.write_all(client.metrics_prometheus().as_bytes())?;
                out.write_all(b"END\n")?;
            }
            "VERSION" => {
                let (id, label) = client.current_version();
                writeln!(out, "{id} {label}")?;
            }
            cmd if cmd.starts_with("SQL ") || cmd == "SQL" => {
                let stmt = cmd.strip_prefix("SQL").unwrap_or("").trim();
                match crate::sql::execute_sql(stmt, client) {
                    Ok(body) => writeln!(out, "{body}")?,
                    Err(e) => writeln!(out, "ERR {e}")?,
                }
            }
            cmd if cmd.starts_with("TRACKED ") || cmd == "TRACKED" => {
                let query = cmd.strip_prefix("TRACKED").unwrap_or("").trim();
                match parse_query(query, client.ncols()) {
                    Ok(rq) => match client.estimate(&rq) {
                        Ok(sel) => writeln!(out, "{} {sel:.6}", rq.canonical_key())?,
                        Err(e) => writeln!(out, "ERR {e}")?,
                    },
                    Err(e) => writeln!(out, "ERR {e}")?,
                }
            }
            cmd if cmd.starts_with("REPORT ") => {
                let mut parts = cmd["REPORT ".len()..].split_whitespace();
                let parsed = match (parts.next(), parts.next(), parts.next()) {
                    (Some(qid), Some(count), None) => {
                        qid.parse::<u64>().ok().zip(count.parse::<u64>().ok())
                    }
                    _ => None,
                };
                match parsed {
                    Some((qid, true_count)) => match client.report_true_count(qid, true_count) {
                        Some(q) => writeln!(out, "OK {q:.6}")?,
                        None => writeln!(out, "ERR no record for qid")?,
                    },
                    None => writeln!(out, "ERR usage: REPORT <qid> <true_count>")?,
                }
            }
            query => match parse_query(query, client.ncols()).and_then(|rq| client.estimate(&rq)) {
                Ok(sel) => writeln!(out, "{sel:.6}")?,
                Err(e) => writeln!(out, "ERR {e}")?,
            },
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, Service};
    use iam_core::{IamConfig, IamEstimator};
    use std::io::Read;

    #[test]
    fn closed_connections_release_their_handles() {
        let table = iam_data::synth::Dataset::Twi.generate(200, 1);
        let model = IamEstimator::build(&table, IamConfig::small());
        let svc = Service::start(model, "churn", ServeConfig::default());
        let fe = TcpFrontend::spawn(svc.client(), "127.0.0.1:0").unwrap();
        for _ in 0..64 {
            let mut s = TcpStream::connect(fe.addr).unwrap();
            s.write_all(b"QUIT\n").unwrap();
            // the handler closes the socket on QUIT
            s.read_to_end(&mut Vec::new()).unwrap();
        }
        let held = fe.conns.lock().unwrap().len();
        assert!(held <= 4, "{held} handles held after 64 closed connections");
        fe.stop();
        svc.shutdown();
    }

    #[test]
    fn parses_points_and_ranges() {
        let rq = parse_query("0=3 1=2.5..9", 3).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::point(3.0)));
        assert_eq!(rq.cols[1], Some(Interval::closed(2.5, 9.0)));
        assert_eq!(rq.cols[2], None);
    }

    #[test]
    fn open_bounds_via_star() {
        let rq = parse_query("1=*..0.5 0=-2..*", 2).unwrap();
        let iv1 = rq.cols[1].unwrap();
        assert_eq!(iv1.lo, f64::NEG_INFINITY);
        assert_eq!(iv1.hi, 0.5);
        let iv0 = rq.cols[0].unwrap();
        assert_eq!(iv0.lo, -2.0);
        assert_eq!(iv0.hi, f64::INFINITY);
    }

    #[test]
    fn repeated_terms_intersect() {
        let rq = parse_query("0=1..10 0=5..20", 1).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::closed(5.0, 10.0)));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["nonsense", "0:3", "x=1", "0=a..b", "5=1..2", "", "0=*"] {
            assert!(parse_query(bad, 2).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn render_query_round_trips_through_parse() {
        for line in ["0=3 1=2.5..9", "1=*..0.5", "0=-2..*", "0=1.25"] {
            let rq = parse_query(line, 3).unwrap();
            let rendered = render_query(&rq);
            let back = parse_query(&rendered, 3).unwrap();
            assert_eq!(back.canonical_key(), rq.canonical_key(), "{line} → {rendered}");
        }
        assert_eq!(render_query(&RangeQuery::unconstrained(2)), "*");
    }

    #[test]
    fn bare_wildcard_parses_unconstrained() {
        let rq = parse_query("*", 2).unwrap();
        assert!(rq.cols.iter().all(|c| c.is_none()));
        let back = parse_query(&render_query(&RangeQuery::unconstrained(2)), 2).unwrap();
        assert_eq!(back.canonical_key(), rq.canonical_key());
    }

    #[test]
    fn render_handles_degenerate_and_empty_intervals() {
        // degenerate points at ±∞ render as literals, not the unparseable `col=*`
        let mut rq = RangeQuery::unconstrained(2);
        rq.cols[0] = Some(Interval::point(f64::INFINITY));
        rq.cols[1] = Some(Interval::point(f64::NEG_INFINITY));
        let r = render_query(&rq);
        assert_eq!(r, "0=inf 1=-inf");
        let back = parse_query(&r, 2).unwrap();
        assert_eq!(back.canonical_key(), rq.canonical_key());

        // an empty interval renders as the canonical empty range and
        // re-parses to an interval that is again empty
        let mut rq = RangeQuery::unconstrained(1);
        rq.cols[0] = Some(Interval::closed(5.0, 3.0));
        let r = render_query(&rq);
        assert_eq!(r, "0=inf..-inf");
        assert!(parse_query(&r, 1).unwrap().cols[0].unwrap().is_empty());

        // strictness-emptied [v, v) must not render as a satisfiable point
        let mut rq = RangeQuery::unconstrained(1);
        rq.cols[0] = Some(Interval { lo: 2.0, hi: 2.0, lo_strict: false, hi_strict: true });
        assert!(parse_query(&render_query(&rq), 1).unwrap().cols[0].unwrap().is_empty());
    }

    #[test]
    fn canonical_keys_match_construction_route() {
        // a parsed query must cache-key identically to the same query built
        // programmatically
        let parsed = parse_query("0=3 1=2.5..9", 2).unwrap();
        let mut built = RangeQuery::unconstrained(2);
        built.cols[0] = Some(Interval::point(3.0));
        built.cols[1] = Some(Interval::closed(2.5, 9.0));
        assert_eq!(parsed.canonical_key(), built.canonical_key());
    }
}

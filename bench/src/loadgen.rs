//! The load generator: one thread, one connection, replies verified as
//! they arrive.
//!
//! * [`closed_pass`] keeps `window` requests in flight and sends the next
//!   when a reply comes back; latency runs from submit to verified reply.
//! * [`open_run`] sends on a fixed schedule whatever the server does;
//!   latency runs from the time a request was *due*, so a stall is charged
//!   to every request it delays, and the generator's own lateness is
//!   reported as lag.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsdnn::engine::CostLut;
use qsdnn_serve::protocol::{encode_body, PlanResponse, Response};
use qsdnn_serve::{PlanClient, ServeError, DEFAULT_CLIENT_WINDOW};

use crate::trace::{SpanId, Tracer};
use crate::verify::{check_hit, check_miss, Expected};
use crate::workloads::{Class, Op, Scenario};

/// Latency limits of `slo_ok_ratio`, from due time.
pub const HIT_SLO: Duration = Duration::from_millis(25);
pub const MISS_SLO: Duration = Duration::from_millis(500);

/// Everything needed to judge a reply without touching the server.
pub struct Verifier {
    /// By working-set index: the reply verified in set-up.
    pub expected: Vec<Expected>,
    /// By working-set index: what that reply says about the plan and how
    /// large it is on the load connection.
    pub served: Vec<Served>,
    /// Whether the load connection speaks binary frames.
    pub binary: bool,
    /// Cost model per searched scenario, built before the pass starts.
    pub luts: HashMap<Scenario, Arc<CostLut>>,
}

impl Verifier {
    fn check(&self, op: &Op, reply: &PlanResponse) -> Result<(), String> {
        match op.class {
            Class::Hit => check_hit(reply, &self.expected[op.ws]),
            class => {
                let lut = self
                    .luts
                    .get(&op.scenario)
                    .ok_or_else(|| format!("no LUT prepared for {:?}", op.scenario))?;
                check_miss(reply, lut, class == Class::Warm)
            }
        }
    }
}

/// What one verified plan reply says about plan quality and the wire.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub scenario: Scenario,
    /// Bytes of the reply's body on the load connection.
    pub reply_bytes: usize,
    /// `vanilla_cost_ms / best_cost_ms`.
    pub speedup: f64,
    /// Whether a QS-DNN member won the portfolio race.
    pub rl_won: bool,
    pub cost_ms: f64,
}

impl Served {
    /// Consumes the reply: sizing it means encoding it once more.
    pub fn of(scenario: Scenario, reply: PlanResponse, binary: bool) -> Self {
        let (speedup, cost_ms) = (reply.speedup(), reply.best.best_cost_ms);
        let rl_won = reply.winner.starts_with("qs-dnn");
        let resp = Response::Plan(reply);
        let reply_bytes = if binary {
            encode_body(&resp).map_or(0, |b| b.len())
        } else {
            serde_json::to_string(&resp).map_or(0, |s| s.len())
        };
        Served {
            scenario,
            reply_bytes,
            speedup,
            rl_won,
            cost_ms,
        }
    }
}

/// One verified operation. Kept to 16 bytes: the generator runs in the
/// process whose peak memory is a metric, and `hit_small` verifies a
/// third of a million operations a run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Seconds into the pass at which the operation was submitted (closed
    /// loop) or due (open loop).
    pub at_s: f32,
    pub latency_us: f64,
}

#[derive(Debug, Default)]
pub struct PassOutcome {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Verified hits by working-set index; what each served is in
    /// [`Verifier::served`].
    pub hits: Vec<u64>,
    /// Verified searched replies, one entry each.
    pub searched: Vec<Served>,
    /// Open loop: send time minus due time, per request the generator
    /// was free to send when it came due.
    pub lag_us: Vec<f64>,
    /// Open loop: operations verified within their class's latency limit.
    pub slo_ok: u64,
    pub first_error: Option<String>,
}

impl PassOutcome {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }
}

struct Pending {
    op: usize,
    /// Where the operation's latency starts: submit time (closed loop) or
    /// due time (open loop).
    since: Instant,
    span: SpanId,
}

enum Collected {
    /// A reply arrived and was judged.
    Settled {
        class: Class,
        latency: Duration,
        verified: bool,
    },
    TimedOut,
    /// The connection is gone; whatever was in flight has been failed.
    Broken,
}

/// The requests of one pass that are on the wire, and the pass's books.
struct Flight<'a> {
    client: &'a mut PlanClient,
    ops: &'a mut [Op],
    verifier: &'a Verifier,
    tracer: &'a mut Tracer,
    op_base: u64,
    started: Instant,
    pending: HashMap<u64, Pending>,
    out: PassOutcome,
}

impl Flight<'_> {
    /// Sends operation `index`, whose latency runs from `since`. False
    /// when the connection is gone.
    fn submit(&mut self, index: usize, since: Instant) -> bool {
        let req = self.ops[index]
            .request
            .take()
            .expect("an op is submitted once");
        let op_id = self.op_base + index as u64;
        let span = self.tracer.open("op", since, Tracer::root(), op_id);
        self.out.attempted += 1;
        let sending = Instant::now();
        match self.client.submit_plan(req) {
            Ok(ticket) => {
                self.tracer
                    .record("client.submit", sending, Instant::now(), span, op_id);
                self.pending.insert(
                    ticket.id(),
                    Pending {
                        op: index,
                        since,
                        span,
                    },
                );
                true
            }
            Err(e) => {
                let lost = 1 + self.pending.len() as u64;
                self.out.fail(lost, || format!("submit: {e}"));
                false
            }
        }
    }

    /// Waits for one reply, judges it and books it.
    fn collect(&mut self) -> Collected {
        let waiting = Instant::now();
        let (ticket, resp) = match self.client.wait_any() {
            Ok(reply) => reply,
            Err(e) if timed_out(&e) => return Collected::TimedOut,
            Err(e) => {
                let lost = self.pending.len() as u64;
                self.out.fail(lost, || format!("wait: {e}"));
                return Collected::Broken;
            }
        };
        let received = Instant::now();
        let Some(pending) = self.pending.remove(&ticket.id()) else {
            self.out
                .fail(1, || format!("reply for unknown ticket {}", ticket.id()));
            return Collected::TimedOut;
        };
        let op = &self.ops[pending.op];
        let op_id = self.op_base + pending.op as u64;
        self.tracer
            .record("client.wait", waiting, received, pending.span, op_id);
        let verdict = match resp {
            Response::Plan(plan) => self.verifier.check(op, &plan).map(|()| plan),
            Response::Error { message } => Err(format!("error reply: {message}")),
            _ => Err("reply is not a plan".to_string()),
        };
        let verified = Instant::now();
        self.tracer
            .record("verify", received, verified, pending.span, op_id);
        self.tracer.close(pending.span, verified);
        let latency = verified.duration_since(pending.since);
        let ok = verdict.is_ok();
        match verdict {
            Ok(plan) => {
                self.out.samples.push(Sample {
                    class: op.class,
                    at_s: pending.since.duration_since(self.started).as_secs_f32(),
                    latency_us: latency.as_secs_f64() * 1e6,
                });
                if op.class == Class::Hit {
                    if self.out.hits.len() <= op.ws {
                        self.out.hits.resize(op.ws + 1, 0);
                    }
                    self.out.hits[op.ws] += 1;
                } else {
                    // Sized after its latency has been taken.
                    let served = Served::of(op.scenario, plan, self.verifier.binary);
                    self.out.searched.push(served);
                }
            }
            Err(why) => self.out.fail(1, || why),
        }
        Collected::Settled {
            class: op.class,
            latency,
            verified: ok,
        }
    }
}

fn timed_out(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io) if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut))
}

fn flight<'a>(
    client: &'a mut PlanClient,
    ops: &'a mut [Op],
    window: usize,
    verifier: &'a Verifier,
    tracer: &'a mut Tracer,
    op_base: u64,
) -> Flight<'a> {
    Flight {
        client,
        ops,
        verifier,
        tracer,
        op_base,
        started: Instant::now(),
        pending: HashMap::with_capacity(window * 2),
        out: PassOutcome::default(),
    }
}

/// One closed-loop pass over `ops`.
pub fn closed_pass(
    client: &mut PlanClient,
    ops: &mut [Op],
    window: usize,
    verifier: &Verifier,
    tracer: &mut Tracer,
    op_base: u64,
) -> PassOutcome {
    let total = ops.len();
    let mut f = flight(client, ops, window, verifier, tracer, op_base);
    let mut next = 0usize;
    'pass: loop {
        while next < total && f.pending.len() < window {
            if !f.submit(next, Instant::now()) {
                break 'pass;
            }
            next += 1;
        }
        if f.pending.is_empty() || matches!(f.collect(), Collected::Broken) {
            break;
        }
    }
    f.out.wall_s = f.started.elapsed().as_secs_f64();
    f.out
}

/// The open loop: operation `i` is due `i / rate_per_s` seconds after the
/// start, is sent as soon after that as the generator gets to it (at most
/// [`DEFAULT_CLIENT_WINDOW`] in flight), and is timed from its due time.
pub fn open_run(
    client: &mut PlanClient,
    ops: &mut [Op],
    rate_per_s: f64,
    verifier: &Verifier,
    tracer: &mut Tracer,
) -> PassOutcome {
    let window = DEFAULT_CLIENT_WINDOW;
    let total = ops.len();
    let mut f = flight(client, ops, window, verifier, tracer, 0);
    let started = f.started;
    let due = |i: usize| started + Duration::from_secs_f64(i as f64 / rate_per_s);
    let mut next = 0usize;
    let mut last_reply = started;
    // Whether the next request came due while the window was full: its
    // lateness is then the server's doing (and is in its latency), not
    // the generator's, and is kept out of the lag.
    let mut held_back = false;
    'run: loop {
        let mut now = Instant::now();
        if next < total && f.pending.len() >= window && now >= due(next) {
            held_back = true;
        }
        while next < total && f.pending.len() < window && now >= due(next) {
            if !std::mem::take(&mut held_back) {
                f.out
                    .lag_us
                    .push(now.duration_since(due(next)).as_secs_f64() * 1e6);
            }
            if !f.submit(next, due(next)) {
                break 'run;
            }
            next += 1;
            now = Instant::now();
        }
        if next == total && f.pending.is_empty() {
            break;
        }
        // Wait for a reply, but no longer than until the next send is due.
        let wait = if next < total && f.pending.len() < window {
            due(next)
                .saturating_duration_since(now)
                .max(Duration::from_micros(50))
        } else {
            Duration::from_millis(250)
        };
        if f.pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if let Err(e) = f.client.set_timeout(Some(wait)) {
            let lost = f.pending.len() as u64;
            f.out.fail(lost, || format!("set_timeout: {e}"));
            break;
        }
        match f.collect() {
            Collected::Settled {
                class,
                latency,
                verified,
            } => {
                last_reply = Instant::now();
                let limit = if class == Class::Hit {
                    HIT_SLO
                } else {
                    MISS_SLO
                };
                if verified && latency <= limit {
                    f.out.slo_ok += 1;
                }
            }
            Collected::TimedOut => {}
            Collected::Broken => break,
        }
    }
    // Leave the connection blocking again for whoever uses it next.
    let _ = f.client.set_timeout(None);
    f.out.wall_s = last_reply.duration_since(started).as_secs_f64();
    f.out
}

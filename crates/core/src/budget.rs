//! Execution budgets: deadlines, cooperative cancellation, memory caps.
//!
//! An [`ExecBudget`] travels with a pipeline run and is polled at the
//! run's natural granules — GCN epochs, matcher rounds, feature/stage
//! boundaries — while [`ExecBudget::install`] arms the lower layers for
//! the same scope: `ceaff-parallel` kernels abandon remaining chunks
//! once the cancel/deadline probe fires, and `ceaff-tensor` tracks live
//! matrix bytes against the memory cap. Overruns surface as *graceful
//! degradation* (a best-effort result plus a
//! [`ceaff_telemetry::Degradation`] record in the trace)
//! for time-like budgets, and as a typed
//! [`CeaffError::BudgetExceeded`] for the memory budget — never as an
//! OOM abort or a silently wrong answer.
//!
//! Three budget dimensions, all optional and freely combined:
//!
//! * **Deadline** — a monotonic [`Instant`]; checked by `Instant::now()`
//!   at granule boundaries and inside kernel chunk claims. Wall-clock
//!   driven, so inherently nondeterministic; results after a deadline
//!   stop are best-effort.
//! * **Cancellation** — a cloneable [`CancelToken`] flipped by another
//!   thread or a signal handler (the CLI maps SIGINT onto one).
//! * **Step limit** — a deterministic cap on the total number of
//!   granules consumed. This is the dimension tests and experiments
//!   use: "stop after k granules" degrades *identically* on every
//!   machine and thread count, unlike a wall-clock deadline. It is only
//!   polled at sequential granule boundaries, never inside parallel
//!   kernels, so the degraded output is reproducible.
//!
//! The unconstrained budget ([`ExecBudget::unlimited`]) is free: every
//! entry point short-circuits to the exact pre-budget code path, so the
//! output is bitwise-identical to a run without budgets at any thread
//! count.

use crate::error::CeaffError;
use ceaff_telemetry::{Degradation, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted scope stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The monotonic deadline passed.
    DeadlineExceeded,
    /// The deterministic step limit was consumed.
    StepLimit,
}

impl StopReason {
    /// Stable lower-case label used in [`Degradation::reason`] and CLI
    /// summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline",
            StopReason::StepLimit => "step_limit",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Clone)]
enum CancelFlag {
    Owned(Arc<AtomicBool>),
    /// Backed by caller-owned storage — lets a signal handler (which can
    /// only touch `static`s) flip the same flag the budget polls, with
    /// no relay thread in between.
    Static(&'static AtomicBool),
}

/// A cooperative, cloneable cancellation handle. All clones observe the
/// same flag; cancellation is sticky.
#[derive(Clone)]
pub struct CancelToken {
    flag: CancelFlag,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken {
            flag: CancelFlag::Owned(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A token backed by a `static AtomicBool` the caller owns — the
    /// hook for signal handlers (see the CLI's SIGINT wiring).
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken {
            flag: CancelFlag::Static(flag),
        }
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        match &self.flag {
            CancelFlag::Owned(flag) => flag.store(true, Ordering::Relaxed),
            CancelFlag::Static(flag) => flag.store(true, Ordering::Relaxed),
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.flag {
            CancelFlag::Owned(flag) => flag.load(Ordering::Relaxed),
            CancelFlag::Static(flag) => flag.load(Ordering::Relaxed),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// The execution budget of one pipeline run. Cheap to clone (clones
/// share the step counter). See the module docs for semantics.
#[derive(Clone, Default)]
pub struct ExecBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_mem_bytes: Option<usize>,
    step_limit: Option<u64>,
    steps: Arc<AtomicU64>,
}

impl std::fmt::Debug for ExecBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecBudget")
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
            .field("max_mem_bytes", &self.max_mem_bytes)
            .field("step_limit", &self.step_limit)
            .field("steps", &self.steps.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecBudget {
    /// No constraints: every entry point behaves exactly as if no budget
    /// existed (bitwise-identical output).
    pub fn unlimited() -> Self {
        ExecBudget::default()
    }

    /// Stop `duration` from now.
    pub fn with_deadline(mut self, duration: Duration) -> Self {
        self.deadline = Some(Instant::now() + duration);
        self
    }

    /// Stop at the given monotonic instant.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Observe `token` for cooperative cancellation.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Cap the run's live tensor footprint at `bytes`. Enforced by the
    /// thread-local allocation ledger in `ceaff-tensor`; crossing the cap
    /// surfaces as [`CeaffError::BudgetExceeded`] at the next stage or
    /// epoch boundary.
    pub fn with_max_mem_bytes(mut self, bytes: usize) -> Self {
        self.max_mem_bytes = Some(bytes);
        self
    }

    /// Deterministically stop after `steps` granules (epochs + matcher
    /// rounds + stage boundaries) have been consumed.
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.step_limit = Some(steps);
        self
    }

    /// Whether this budget constrains nothing.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.max_mem_bytes.is_none()
            && self.step_limit.is_none()
    }

    /// The installed memory cap, if any.
    pub fn max_mem_bytes(&self) -> Option<usize> {
        self.max_mem_bytes
    }

    /// Granules consumed so far via [`ExecBudget::consume_step`].
    pub fn steps_consumed(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Whether a time-like budget dimension wants the run stopped *now*,
    /// without consuming a step. Cancel wins over deadline over step
    /// limit when several have fired.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExceeded);
        }
        if self
            .step_limit
            .is_some_and(|limit| self.steps.load(Ordering::Relaxed) >= limit)
        {
            return Some(StopReason::StepLimit);
        }
        None
    }

    /// Mid-granule poll covering only the time-like dimensions (cancel,
    /// deadline) — never the step limit, so a step-limited run always
    /// consumes exactly its granule count and degrades identically on
    /// every machine. Used inside long algorithm rounds (matcher
    /// proposal chains, augmenting searches) where waiting for the next
    /// granule boundary would delay a cancel response.
    pub fn interrupt_reason(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExceeded);
        }
        None
    }

    /// Granule-boundary check: returns the stop reason if the budget is
    /// exhausted, otherwise consumes one step and allows the granule to
    /// run. A `with_step_limit(k)` budget therefore permits exactly `k`
    /// granules.
    pub fn consume_step(&self) -> Option<StopReason> {
        let reason = self.stop_reason();
        if reason.is_none() {
            self.steps.fetch_add(1, Ordering::Relaxed);
        }
        reason
    }

    /// Stage-boundary memory check: errors once the tensor ledger has
    /// crossed the installed cap. A no-op without a memory cap.
    pub fn check_mem(&self, stage: &str) -> Result<(), CeaffError> {
        match self.max_mem_bytes {
            Some(limit_bytes) if ceaff_tensor::mem_exceeded() => Err(CeaffError::BudgetExceeded {
                stage: stage.to_owned(),
                limit_bytes,
                peak_bytes: ceaff_tensor::mem_peak_bytes(),
            }),
            _ => Ok(()),
        }
    }

    /// Arm the lower layers for the current scope: install the tensor
    /// memory cap and the kernel-level cancel/deadline probe on this
    /// thread. Both uninstall when the returned scope drops. An
    /// unlimited budget installs nothing, keeping the hot paths on their
    /// probe-free (bitwise-identical) branches.
    #[must_use = "the budget disarms when the scope drops"]
    pub fn install(&self) -> BudgetScope {
        let mem_guard = self.max_mem_bytes.map(ceaff_tensor::install_mem_limit);
        let probe_guard = if self.cancel.is_some() || self.deadline.is_some() {
            let cancel = self.cancel.clone();
            let deadline = self.deadline;
            let probe: ceaff_parallel::CancelProbe = Arc::new(move || {
                cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                    || deadline.is_some_and(|d| Instant::now() >= d)
            });
            Some(ceaff_parallel::install_cancel_probe(probe))
        } else {
            None
        };
        BudgetScope {
            _mem_guard: mem_guard,
            _probe_guard: probe_guard,
        }
    }

    /// Build the [`Degradation`] record for a stage this budget stopped
    /// short, and register it with `telemetry` so it rides the trace.
    pub fn record_degradation(
        &self,
        telemetry: &Telemetry,
        stage: &str,
        reason: StopReason,
        rounds_completed: u64,
        fraction_degraded: f64,
    ) -> Degradation {
        let record = Degradation {
            stage: stage.to_owned(),
            reason: reason.as_str().to_owned(),
            rounds_completed,
            fraction_degraded,
        };
        telemetry.degradation(record.clone());
        record
    }

    /// Emit the `budget/*` counters summarising this budget's
    /// consumption. Called once per budgeted run; unconstrained runs
    /// emit nothing (their traces must stay byte-identical to pre-budget
    /// output).
    pub fn emit_counters(&self, telemetry: &Telemetry) {
        if self.is_unlimited() {
            return;
        }
        telemetry.counter_add("budget", "steps_consumed", self.steps_consumed());
        if let Some(limit) = self.max_mem_bytes {
            telemetry.counter_add("budget", "mem_limit_bytes", limit as u64);
            telemetry.counter_add(
                "budget",
                "mem_peak_bytes",
                ceaff_tensor::mem_peak_bytes() as u64,
            );
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            telemetry.counter_add("budget", "cancelled", 1);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            telemetry.counter_add("budget", "deadline_exceeded", 1);
        }
    }
}

/// Armed lower-layer hooks for one budgeted scope; returned by
/// [`ExecBudget::install`].
pub struct BudgetScope {
    _mem_guard: Option<ceaff_tensor::MemLimitGuard>,
    _probe_guard: Option<ceaff_parallel::CancelProbeGuard>,
}

/// Suppress the kernel-level cancel probe on this thread until the
/// returned guard drops. Used around short, *non-degradable* parallel
/// computations (fusion, CSLS, the semantic/string features): a probe
/// firing mid-kernel leaves partially-written buffers, which degradable
/// stages (GCN epochs, matchers) detect and discard — but a stage whose
/// output feeds the rest of the run unconditionally must instead finish
/// its kernels and let the next *boundary* check observe the stop.
#[must_use = "the probe is re-armed when the guard drops"]
pub fn uninterruptible_scope() -> ceaff_parallel::CancelProbeGuard {
    ceaff_parallel::install_cancel_probe(Arc::new(|| false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let budget = ExecBudget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.stop_reason(), None);
        for _ in 0..1000 {
            assert_eq!(budget.consume_step(), None);
        }
        assert!(budget.check_mem("gcn").is_ok());
    }

    #[test]
    fn step_limit_is_deterministic_and_shared_across_clones() {
        let budget = ExecBudget::unlimited().with_step_limit(5);
        let clone = budget.clone();
        let mut allowed = 0;
        for i in 0..10 {
            let side = if i % 2 == 0 { &budget } else { &clone };
            if side.consume_step().is_none() {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 5);
        assert_eq!(budget.consume_step(), Some(StopReason::StepLimit));
        assert_eq!(budget.steps_consumed(), 5);
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let budget = ExecBudget::unlimited().with_cancel(token.clone());
        assert_eq!(budget.stop_reason(), None);
        token.clone().cancel();
        assert_eq!(budget.stop_reason(), Some(StopReason::Cancelled));
        assert_eq!(budget.consume_step(), Some(StopReason::Cancelled));
        assert_eq!(
            budget.steps_consumed(),
            0,
            "a refused granule consumes nothing"
        );
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let budget = ExecBudget::unlimited().with_deadline(Duration::from_secs(0));
        assert_eq!(budget.stop_reason(), Some(StopReason::DeadlineExceeded));
        let future = ExecBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(future.stop_reason(), None);
        assert!(!future.is_unlimited());
    }

    #[test]
    fn cancel_outranks_deadline_outranks_step_limit() {
        let token = CancelToken::new();
        token.cancel();
        let budget = ExecBudget::unlimited()
            .with_cancel(token)
            .with_deadline(Duration::from_secs(0))
            .with_step_limit(0);
        assert_eq!(budget.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn mem_budget_surfaces_typed_error() {
        let budget = ExecBudget::unlimited().with_max_mem_bytes(64);
        let _scope = budget.install();
        assert!(budget.check_mem("setup").is_ok());
        let _big = ceaff_tensor::Matrix::zeros(16, 16); // 1024 bytes
        let err = budget.check_mem("features").expect_err("over budget");
        match err {
            CeaffError::BudgetExceeded {
                stage,
                limit_bytes,
                peak_bytes,
            } => {
                assert_eq!(stage, "features");
                assert_eq!(limit_bytes, 64);
                assert!(peak_bytes >= 1024);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn install_arms_the_kernel_probe() {
        let token = CancelToken::new();
        let budget = ExecBudget::unlimited().with_cancel(token.clone());
        {
            let _scope = budget.install();
            assert!(!ceaff_parallel::cancel_probe_fired());
            token.cancel();
            assert!(ceaff_parallel::cancel_probe_fired());
        }
        // Disarmed after the scope drops.
        assert!(!ceaff_parallel::cancel_probe_fired());
    }

    #[test]
    fn static_backed_token_for_signal_handlers() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let token = CancelToken::from_static(&FLAG);
        assert!(!token.is_cancelled());
        FLAG.store(true, Ordering::Relaxed);
        assert!(token.is_cancelled());
        FLAG.store(false, Ordering::Relaxed);
    }
}

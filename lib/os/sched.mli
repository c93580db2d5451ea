(** Deterministic interleaved scheduler.

    The kernel's {!Kernel.run} executes each queued process body to
    completion before the next starts, so "heavy traffic" degenerates
    to one request at a time. This module replaces that with seeded
    time-slicing over the same run queue: each runnable process gets a
    quantum of logical ticks; when a kernel crossing (syscall dispatch
    entry) finds the quantum spent, the process is suspended via an
    OCaml effect and requeued, and another process runs.

    {b Determinism.} There are no threads and no wall clock anywhere
    in the loop: the interleaving is a pure function of the policy,
    the seed, and the workload. Two runs with the same seed therefore
    produce byte-identical audit logs, traces, and store state — which
    is what makes concurrency testable at all (and is the property the
    [sched] QCheck suite pins down).

    {b Why preemption can't tear state.} Suspension happens only at
    syscall-dispatch {e entry} ({!Kernel.preempt_point}): the kernel
    holds no per-call state there, and every audit event is appended
    the moment it happens, so a context switch can never interleave
    one process's audit events or label checks into another's within
    a syscall. Gate children run with the preemption hook set aside
    ({!Kernel.invoke_gate}) and are thus never preempted —
    privilege-transfer stays atomic. *)

type t

type policy =
  | Fifo  (** strict round-robin: pop the head, requeue at the tail *)
  | Seeded of int
      (** deterministic pseudo-random pick (splitmix64 over the seed):
          same seed, same interleaving, byte-identical logs *)

type stats = {
  slices : int;  (** context switches: slices started *)
  preemptions : int;  (** slices ended by quantum expiry *)
  completed : int;  (** processes run to normal exit *)
  killed : int;  (** processes killed (quota or uncaught exception) *)
  max_depth : int;  (** peak run-queue depth observed *)
}

val default_quantum : int
(** 4 ticks — a few syscalls per slice, small enough that a typical
    gateway request is preempted several times. *)

val create : ?quantum:int -> ?policy:policy -> Kernel.t -> t
(** A scheduler over [kernel]'s run queue. [quantum] (default
    {!default_quantum}, clamped to ≥ 1) is the tick budget per slice.
    Registers [w5_sched_*] metrics (slice counter, preemption counter,
    run-queue-depth histogram, per-slice tick latency) in the kernel's
    registry. *)

val drain : t -> unit
(** Admit everything on the kernel run queue and interleave until no
    runnable process remains. Processes spawned during the drain are
    admitted at the next slice boundary. Installs the kernel preempt
    hook for the duration (cleared even on raise); only one drain may
    be active per kernel at a time. *)

val queue_depth : t -> int
(** Suspended-or-admitted processes currently waiting for a slice. *)

val quantum : t -> int
(** The tick budget per slice this scheduler was created with. *)

val policy : t -> policy

(** {2 Preemption-model introspection}

    Facts about this scheduler's preemption placement, exported so the
    static interference analysis (lib/analysis) derives its
    may-happen-in-parallel model from the scheduler itself rather than
    restating it. The differential-soundness suite replays real
    scheduler audit logs against the derived model, so changing the
    scheduler without updating these constants (or vice versa) turns
    the replay red. *)

val entry_preemption_only : bool
(** [true]: the preempt hook fires only from {!Kernel.preempt_point},
    which dispatch crosses exactly once at syscall entry — never in
    the middle of a syscall body. *)

val gate_children_atomic : bool
(** [true]: a gate child runs with the preemption hook set aside
    (and pid ≠ current), so neither it nor the enclosing privilege
    transfer can be preempted. *)

val stats : t -> stats
(** Cumulative counters since {!create}. *)

val run : ?quantum:int -> ?policy:policy -> Kernel.t -> stats
(** [create] + [drain] + [stats] in one shot — the scheduler-flavoured
    drop-in for {!Kernel.run}. *)

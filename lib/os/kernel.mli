(** The simulated W5 kernel.

    Holds the labeled filesystem, the process table, the audit log,
    the gate registry and a logical clock. The kernel is the trusted
    computing base of the simulation: applications only ever touch it
    through {!Syscall}.

    {b Gates} are the privilege-transfer mechanism (after Flume's
    setlabel files / HiStar gates): a gate bundles an entry point with
    a capability set; invoking it spawns a process that runs the entry
    point with the gate's capabilities rather than the caller's. This
    is how a declassifier obtains the [t-] capability for a user's
    secrecy tag without the calling application ever holding it. *)

open W5_difc

type t

(** The execution context handed to every process body: the kernel it
    runs on and its own process record. *)
type ctx = {
  kernel : t;
  proc : Proc.t;
}

type body = ctx -> unit

exception Quota_kill of Resource.kind
(** Raised inside a process body by the syscall layer when a resource
    limit is exceeded; caught by the kernel, which kills the process. *)

val default_audit_capacity : int
(** 65536. An entry is on the order of 100 bytes, so the default keeps
    the resident log under ~10 MB while still holding enough history
    for denial queries over a long trace. Long-running providers that
    accepted the seed's unbounded default would grow without bound
    over a soak run; truncation stays observable because sequence
    numbers keep counting (see {!Audit.create}). *)

val create : ?enforcing:bool -> ?audit_capacity:int -> unit -> t
(** A fresh kernel with an empty filesystem. [enforcing] (default
    [true]) turns the IFC checks on; with it off the mechanism runs
    but every check passes — this is the baseline arm of the overhead
    benchmark (P1), {e never} a production configuration.
    [audit_capacity] bounds the audit log (see {!Audit.create});
    defaults to {!default_audit_capacity} so the gateway/kernel wiring
    is memory-bounded out of the box. *)

(** {1 Telemetry}

    Every kernel carries a {!W5_obs.Metrics.t} registry and a
    {!W5_obs.Tracer.t}: the platform-provided visibility of §3.5,
    extended from the audit log to counters and request traces. All
    recorded facts are data-free (op names, decisions, label sizes,
    tick deltas) — never user bytes. *)

type meters = {
  syscalls : W5_obs.Metrics.metric;            (** [{op}] *)
  flow_checks : W5_obs.Metrics.metric;         (** [{op, decision}] *)
  flow_check_src_size : W5_obs.Metrics.metric; (** histogram, label sizes *)
  quota_units : W5_obs.Metrics.metric;         (** [{kind}] *)
  quota_kills : W5_obs.Metrics.metric;         (** [{kind}] *)
  spawns : W5_obs.Metrics.metric;
  gate_invocations : W5_obs.Metrics.metric;    (** [{gate}] *)
  audit_events : W5_obs.Metrics.metric;        (** [{event}] *)
  syscall_ticks : W5_obs.Metrics.metric;
      (** [{op}] latency histogram on {!W5_obs.Perf.tick_buckets}:
          logical-clock ticks consumed per syscall dispatch *)
  trace_dropped : W5_obs.Metrics.metric;
      (** completed traces evicted from the tracer ring
          ([w5_trace_dropped_total]), mirrored from
          {!W5_obs.Tracer.set_on_drop} so ring pressure is visible in
          the metrics exposition, not only in the traces footer *)
}
(** Pre-registered handles for the hot paths, so instrumentation does
    not pay a by-name lookup per syscall. *)

val metrics : t -> W5_obs.Metrics.t
val tracer : t -> W5_obs.Tracer.t
val meters : t -> meters

val id : t -> int
(** A process-wide unique id for this kernel instance, for keying
    per-kernel side tables (e.g. the store's secondary indexes). *)

val enforcing : t -> bool
val set_enforcing : t -> bool -> unit
val fs : t -> Fs.t
val audit : t -> Audit.log
val tick : t -> int
val advance_clock : t -> unit
val kernel_principal : t -> Principal.t

val spawn :
  t -> ?parent:Proc.t -> name:string -> owner:Principal.t ->
  labels:Flow.labels -> caps:Capability.Set.t -> limits:Resource.limits ->
  body -> (Proc.t, Os_error.t) result
(** Create a process and queue it. With [parent] set (the normal case
    for application code) the kernel checks that the child's
    capabilities are a subset of the parent's and that the child's
    labels are reachable from the parent's by a safe label change;
    parentless spawns are reserved for the platform itself. *)

val run_proc : t -> Proc.t -> unit
(** Execute the process body to completion now (if still runnable).
    Quota kills and uncaught application exceptions are converted to
    [Killed] states and audited; they do not escape. *)

val run : t -> unit
(** Drain the run queue, executing queued processes in FIFO order
    (processes spawned during the drain are executed too). *)

(** {1 Scheduler interface}

    The interleaved scheduler ({!module:Sched}) lives above the kernel:
    the kernel only exposes the hooks it needs — admission from the run
    queue, a preemption callback fired by the syscall layer, and the
    shared completion/failure bookkeeping. *)

val take_pending : t -> (Proc.t * body) option
(** Pull the next spawned-but-not-yet-run process (and its body) off
    the kernel run queue without executing it. Used by the scheduler
    for admission; mutually exclusive with {!run} over the same
    processes. *)

val pending_count : t -> int
(** Processes spawned but not yet admitted or run. *)

val set_preempt_hook : t -> (Proc.t -> unit) option -> unit
(** Install (or clear) the scheduler's preemption callback. While set,
    the syscall layer calls it at every dispatch entry via
    {!preempt_point}; the callback may suspend the calling process by
    performing an effect it handles. Only one scheduler drain may be
    active per kernel. *)

val preempt_point : t -> Proc.t -> unit
(** Fire the preemption hook, if installed — but only at audit depth 0,
    so an audit batch can never be suspended half-filled and have
    another process's events interleaved into it. The syscall layer
    calls this at dispatch entry; it is a no-op without a hook. *)

val finish_proc : t -> Proc.t -> unit
(** Mark a process [Exited] and stamp {!Proc.t.finished_tick}. *)

val fail_proc : t -> Proc.t -> exn -> unit
(** Convert a process-body exception into an audited kill:
    {!Quota_kill} becomes a quota kill (metric + [Quota_hit] +
    [Killed] records), anything else an [uncaught: ...] kill. Stamps
    the finish tick. Shared by {!run_proc} and the scheduler. *)

val find_proc : t -> int -> Proc.t option
val processes : t -> Proc.t list

val reap : t -> int
(** Drop exited and killed processes (and their bodies) from the
    process table; returns how many were collected. A long-running
    provider calls this periodically — the gateway does so
    automatically once the table exceeds a watermark. *)

val live_process_count : t -> int

val process_count : t -> int
(** Table size including dead-but-unreaped processes — the reap
    watermark reads this instead of materializing {!processes}. *)

val register_gate :
  t -> name:string -> owner:Principal.t -> caps:Capability.Set.t ->
  entry:(ctx -> string -> unit) -> unit
(** Registering overwrites any previous gate with the same name. *)

val gate_exists : t -> string -> bool
val gate_names : t -> string list

val gate_caps : t -> string -> Capability.Set.t option
(** The capability set a gate runs with — read-only introspection for
    auditors and the static analyzer; the entry point stays private. *)

val gate_owner : t -> string -> Principal.t option

val invoke_gate :
  t -> caller:Proc.t -> name:string -> arg:string ->
  (Proc.t, Os_error.t) result
(** Spawn a child carrying the {e caller's} labels but the {e gate's}
    capabilities, run it synchronously on [arg], and return it (its
    answer, if any, is in [child.Proc.response]). The caller is
    charged one process. *)

val record : t -> pid:int -> Audit.event -> unit
(** Append to the audit log at the current tick. Inside a
    {!with_audit_batch} scope the entry is buffered (with the tick and
    pid captured now) and appended when the scope closes. *)

val with_audit_batch : t -> (unit -> 'a) -> 'a
(** Run [f] with audit events buffered, then append them in one
    {!Audit.record_batch} — one capacity check per scope instead of
    one per event. Scopes nest (the buffer drains when the outermost
    one ends) and flush even if [f] raises, so a quota kill's own
    events still land before the kernel records the kill. Syscall
    dispatch wraps every syscall in one of these. *)

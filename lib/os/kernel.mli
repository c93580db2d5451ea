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
(** 65536. The log retains exactly this many entries. A retained entry
    costs three words of columns plus its event: 82–121 bytes in all
    by [Obj.reachable_words] of a full log after each [bench/e2e]
    workload ([burst] least, [commingled]'s multi-tag labels most), so
    a full log holds 5.1–7.6 MiB. Truncation stays observable because
    sequence numbers keep counting (see {!Audit.evicted}). *)

val create : ?enforcing:bool -> unit -> t
(** A fresh kernel with an empty filesystem and an audit log of
    {!default_audit_capacity} entries. [enforcing] (default [true])
    turns the IFC checks on; with it off the mechanism runs but every
    check passes — this is the baseline arm of the overhead benchmark
    (P1), {e never} a production configuration. *)

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

(** {1 Per-kernel state}

    State that a module above the kernel keeps per provider — the
    store's indexes, a platform's groups, invitations, SLO ledger,
    mail outboxes and service workers — lives in a {!Local} slot. The
    value hangs off the kernel record, typed by the slot, so it is
    freed with its kernel; a process-global table would never free
    it. *)

type kernel := t

module Local : sig
  type 'a t
  (** One slot: a value of type ['a] per kernel. *)

  val create : (unit -> 'a) -> 'a t
  (** A slot whose value for each kernel is made by the function on
      first {!get}. *)

  val get : 'a t -> kernel -> 'a
  (** This kernel's value, made on first use. *)
end

val enforcing : t -> bool
val set_enforcing : t -> bool -> unit
val fs : t -> Fs.t
val audit : t -> Audit.log
val tick : t -> int
val advance_clock : t -> unit
val kernel_principal : t -> Principal.t

(** {1 Process lifecycle}

    A process starts in one of four ways — {!spawn} (queued, run later
    by {!run_proc}, {!run} or the scheduler), {!exec} (a platform-side
    body run now), {!invoke_gate} (a gate child run now) or
    {!create_proc} alone (a {!Service}, driven message by message) —
    and ends in one: the kernel books it with {!finish_proc} or
    {!fail_proc}, which also take it out of the process table. The
    table therefore holds live processes only, and a pid that has ended
    is unknown to {!find_proc} and to every syscall that names a
    process. Code outside the kernel reads process state but never
    writes it. *)

val create_proc :
  t -> ?parent:Proc.t -> name:string -> owner:Principal.t ->
  labels:Flow.labels -> caps:Capability.Set.t -> limits:Resource.limits ->
  unit -> (Proc.t, Os_error.t) result
(** Enter a [Runnable] process in the table, without a body and without
    queueing it, and book its creation ([w5_proc_spawns_total] and a
    [Spawned] audit entry naming [parent], or pid 0). With [parent] set
    (the normal case for application code) the kernel charges the
    parent one process and, when enforcing, checks that the child's
    capabilities are a subset of the parent's and that the child's
    labels are reachable from the parent's by a safe label change;
    parentless creation is reserved for the platform itself and cannot
    fail. *)

val spawn :
  t -> ?parent:Proc.t -> name:string -> owner:Principal.t ->
  labels:Flow.labels -> caps:Capability.Set.t -> limits:Resource.limits ->
  body -> (Proc.t, Os_error.t) result
(** {!create_proc}, then queue the process with its body. The kernel
    holds the body until the process starts. *)

val run_proc : t -> Proc.t -> unit
(** Start a queued process now and run its body to completion, if it
    has not started yet; otherwise (already started or ended, or a
    bodyless service) do nothing. The process leaves the run queue as
    it starts and the process table as it ends. Quota kills and
    uncaught application exceptions are booked by {!fail_proc}; they
    do not escape. *)

val run : t -> unit
(** Drain the run queue, executing queued processes in FIFO order
    (processes spawned during the drain are executed too). *)

val exec :
  t -> name:string -> owner:Principal.t -> labels:Flow.labels ->
  caps:Capability.Set.t -> limits:Resource.limits ->
  (ctx -> ('a, Os_error.t) result) -> ('a, Os_error.t) result
(** Run a platform-side body now, in a fresh parentless process that is
    never queued, and return the body's value. The process ends like
    any other: a quota kill returns [Error (Quota_exceeded kind)] and
    any other exception [Error (Invalid "uncaught: …")], both booked by
    {!fail_proc}. *)

val capture_response : ctx -> (unit -> unit) -> (string * Flow.labels) option
(** Run [f] in the calling process with its response set aside: return
    what [f] responded, if anything, and put the earlier response back
    (also when [f] raises). How a module run inline hands its answer to
    the app that called it. *)

(** {1 Scheduler interface}

    The interleaved scheduler ({!module:Sched}) lives above the kernel:
    the kernel only exposes the hooks it needs — admission from the run
    queue, a preemption callback fired by the syscall layer, and the
    shared completion/failure bookkeeping. *)

val take_pending : t -> (Proc.t * body) option
(** Pull the oldest unstarted process, with its body, off the run queue
    without executing it. The run queue holds only processes that have
    not started, in spawn order. Used by the scheduler for admission;
    mutually exclusive with {!run} over the same processes. *)

val pending_count : t -> int
(** Processes on the run queue: spawned, and not yet admitted or
    run. *)

val set_preempt_hook : t -> (Proc.t -> unit) option -> unit
(** Install (or clear) the scheduler's preemption callback. While set,
    the syscall layer calls it at every dispatch entry via
    {!preempt_point}; the callback may suspend the calling process by
    performing an effect it handles. Only one scheduler drain may be
    active per kernel. *)

val preempt_point : t -> Proc.t -> unit
(** Fire the preemption hook, if installed. The syscall layer calls
    this at dispatch entry and in [consume], and nowhere else; it is a
    no-op without a hook, and so inside a gate child, which
    {!invoke_gate} runs with the hook set aside. *)

val finish_proc : t -> Proc.t -> unit
(** Mark a process [Exited], stamp {!Proc.t.finished_tick} and take it
    out of the process table. *)

val fail_proc : t -> Proc.t -> exn -> Os_error.t
(** Convert a process-body exception into an audited kill:
    {!Quota_kill} becomes a quota kill (metric + [Quota_hit] +
    [Killed] records), anything else an [uncaught: ...] kill. Stamps
    the finish tick, takes the process out of the process table and
    returns the error that names the end:
    [Quota_exceeded kind] or [Invalid "uncaught: …"]. Shared by every
    way a process runs: {!run_proc}, {!exec}, {!invoke_gate}'s child,
    the scheduler and {!Service}. *)

val find_proc : t -> int -> Proc.t option
(** The live process with this pid: queued, running, suspended by the
    scheduler, or a service. [None] once the process has ended. *)

val processes : t -> Proc.t list
(** Every live process, in pid order. *)

val live_process_count : t -> int
(** The size of the process table: live processes only. *)

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
    charged one process. The child is never queued, so the kernel
    keeps nothing of [arg] once it ends. It runs with the preemption
    hook set aside, so no scheduler can suspend it: privilege transfer
    is atomic. *)

val record : t -> pid:int -> Audit.event -> unit
(** Append to the audit log now, at the current tick, and count the
    event in [w5_audit_events_total]. Entries land in the order they
    happen, so a quota kill's [Quota_hit]/[Killed] follow the events
    its last syscall recorded. *)

(** Long-lived, message-driven processes (Asbestos-style event
    processes).

    A service is a process that never exits: it sits on its mailbox
    and handles one message at a time under its own labels and
    capabilities. Senders are subject to the ordinary IPC flow check,
    so a service's {e label} is its access-control policy: a
    bottom-labeled service accepts only untainted mail, a service
    running at a user's secrecy label can receive that user's private
    notifications and nothing less tainted can learn even their
    arrival rate.

    Handlers run only when the kernel pumps the service
    ({!deliver_pending} / {!pump}) — everything stays deterministic. *)

open W5_difc

type t

type handler = Kernel.ctx -> Proc.message -> unit

val create :
  Kernel.t -> name:string -> owner:Principal.t -> ?labels:Flow.labels ->
  ?caps:Capability.Set.t -> ?limits:Resource.limits -> handler ->
  (t, Os_error.t) result
(** The backing process is in the kernel's table but never on its run
    queue ({!Kernel.create_proc}), so no drain runs or ends it: it
    stays alive, and in the table, until {!shutdown} or a failed
    delivery. The default limits are the platform's app limits. *)

val pid : t -> int
val proc : t -> Proc.t
val is_alive : t -> bool

val pending : t -> int
(** Messages waiting in the mailbox. *)

val deliver_pending : t -> (int, Os_error.t) result
(** Run the handler on every queued message (messages the service may
    not absorb are dropped by the ordinary [recv] rules). Returns how
    many messages were handled. A handler exception or quota kill
    stops delivery and kills the service through {!Kernel.fail_proc},
    which audits and counts it like any process's end. *)

val handled : t -> int
(** Total messages handled over the service's lifetime. *)

val pump : t list -> (int, Os_error.t) result
(** One round of {!deliver_pending} over each service; total handled. *)

val shutdown : t -> unit
(** End the service through {!Kernel.finish_proc}: it is [Exited] and
    leaves the process table, so a send to its pid returns
    [No_such_process]. Writes no audit entry. *)

(** May-happen-in-parallel model over the scheduler's preemption
    points.

    Programs here are {e archetypes}: short straight-line sequences of
    syscall steps standing for the platform's process shapes (an app
    request handler, a declassifier gate body, an owner session). The
    model combines them with the preemption placement facts exported
    by {!W5_os.Sched} ([entry_preemption_only],
    [gate_children_atomic]) and the per-op [entry_preempt] flags of
    the syscall spec table to decide where the scheduler can transfer
    control — and therefore which step pairs of different process
    instances can end up adjacent in a real interleaving. *)

type context =
  | Direct  (** an ordinary dispatch by the process itself *)
  | Gate_body  (** runs nested inside a caller's gate invocation *)

type step = { ctx : context; op : string }

type program = { name : string; multiplicity : int; steps : step list }

type model = {
  programs : program list;
  specs : W5_os.Syscall.Spec.t list;
}

val make : program list -> model
(** The programs under the shipped syscall spec table and the real
    scheduler's preemption facts. *)

val spec_of : model -> string -> W5_os.Syscall.Spec.t option

val preempt_before : model -> step -> bool
(** Can the scheduler take the CPU immediately before this step runs?
    True iff the op's spec declares an entry preemption point and the
    step is not shielded by gate-child atomicity. *)

val may_intrude_between : model -> step list -> bool
(** Given the steps strictly after a check up to and including a
    guarded action, can a foreign step intrude in between? True iff
    any of them is preemptible at entry. *)

(** {2 Exhaustive oracle (tiny configs only)} *)

type instance = { i_prog : program; i_id : int }
type schedule = (instance * step) list

val instances : model -> instance list

val interleavings : model -> schedule list
(** Every schedule the preemption model admits, for at most 3
    instances and 18 total steps ([invalid_arg] beyond — the oracle
    is ground truth for tests, not a production path). *)

val observable_adjacencies :
  model -> (string * context * string * context) list
(** Cross-instance adjacent step pairs observable in at least one
    admitted schedule, deduplicated. *)

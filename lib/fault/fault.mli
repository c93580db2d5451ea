(** Deterministic fault injection for federation (the "unreliable
    network between providers" the paper's multi-provider story — §4,
    users re-homing data across competing providers — has to survive).

    A {!t} is a finite, seeded schedule of faults. Code with an
    injection point calls {!consult} with a structural site name
    (operation + file); the plan answers with the fault to simulate at
    this step, if any. Every plan is finite — after {!exhausted}
    becomes true the system under test runs fault-free, which is what
    makes "eventually converges" a provable property rather than a
    hope.

    Determinism: a plan is a pure function of its constructor
    arguments. It draws from a private generator ({!of_seed}), never
    from [Stdlib.Random] or the wall clock, so a failing schedule
    replays byte-for-byte from its seed ([w5 sync --faults SEED]).

    The consumers are the federation layer's injection points:
    [Sync.sync] (message loss, duplication, delays, provider crashes
    around the apply step), and, through {!one_shot},
    [Migrate.import_bundle]/[export_bundle] and [Peer.link_user]. *)

type action =
  | Drop  (** the message (export request or apply) is lost; the
              caller retries with backoff *)
  | Delay of int  (** delivery is late by this many logical ticks;
                      counts against the per-link round budget *)
  | Duplicate  (** the apply is delivered twice — the second delivery
                   must be a no-op (idempotence keyed on content and
                   {!Vector_clock}s) *)
  | Crash_before_apply
      (** the receiving provider dies after persisting the write-ahead
          intent but before applying the write *)
  | Crash_after_apply
      (** the receiving provider dies after applying the write but
          before acknowledging it (intent not yet cleared) *)

exception Crashed of string
(** Raised at an injection point to simulate the provider process
    dying mid-operation. Federation entry points catch it at their
    boundary and surface an error; in-flight state is recovered from
    the write-ahead intent on the next run. *)

val action_name : action -> string
(** ["drop"], ["delay"], ["duplicate"], ["crash_before_apply"],
    ["crash_after_apply"] — the audit/metrics vocabulary. *)

val pp_action : Format.formatter -> action -> unit

type t

val none : unit -> t
(** The empty plan: never faults. (A function — plans count their
    consultation steps, so each link gets its own.) *)

val scripted : ?label:string -> (int * action) list -> t
(** Exact placement for unit tests: fire [action] at the given
    consultation step (0-based). Steps already passed fire at the next
    consultation rather than being skipped. *)

val of_seed :
  ?drops:int -> ?delays:int -> ?duplicates:int -> ?crashes:int ->
  seed:int -> unit -> t
(** A finite random schedule: the requested number of each fault kind
    placed at distinct steps within a horizon proportional to the
    fault count. Defaults: 4 drops, 2 delays, 1 duplicate, 1 crash. *)

val consult : t -> op:string -> file:string -> action option
(** One injection point consultation. Advances the plan's step counter
    and pops the scheduled fault for this step, if any. [op]/[file]
    are recorded for {!fired} — they are structural names, never user
    bytes. *)

val one_shot :
  t -> op:string -> file:string -> on_drop:(int -> unit) ->
  (unit, [ `Lost | `Crashed ]) result
(** The retry policy of a message sent once to an idempotent receiver
    (a link handshake, a migration's export request or import entry):
    consult the plan at [op]/[file]; a dropped message is re-sent, up
    to three attempts in all, calling [on_drop attempt] before each
    re-send; a crash fails at once ([`Crashed]); delays and duplicates
    pass. [`Lost] when the third attempt is dropped too. *)

val pending : t -> int
(** Faults not yet fired. *)

val exhausted : t -> bool
(** [pending t = 0]: from here on the plan is a no-op. *)

val steps_taken : t -> int
(** How many injection points have consulted this plan. *)

val describe : t -> string
(** The constructor parameters, e.g. ["seed=7 drops=4 ..."] — printed
    by [w5 sync --faults] so a run names its own reproduction. *)

val fired : t -> (int * string * action) list
(** Faults already injected, oldest first: (step, site, action). *)

val schedule : t -> (int * action) list
(** The faults still to come, ascending by step. Exposed so tests can
    assert plan determinism (same seed, same schedule). *)

val render_fired : t -> string
(** {!fired} as indented lines for CLI output. *)

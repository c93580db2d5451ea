(** Cross-provider synchronization via import/export declassifiers
    (§3.3): "create import/export declassifiers that synchronize user
    data between two W5 providers. If an end-user deemed such
    applications trustworthy, it would give its privileges to data
    transfer applications on both platforms."

    A {!link} represents exactly that grant, for one user across two
    platforms: on each side the transfer agent holds the user's
    declassification capability (to export a record off the platform)
    and the user's write capability (to import the peer's copy).
    {!export_record} genuinely exercises the export privilege — it
    reads with taint, sheds the owner's tags with the granted [t-], and
    refuses to hand anything over while any secrecy is left on its
    label ({!declassify_for_export}) — so a user who never granted the
    capability cannot be synchronized, trust notwithstanding.

    Change detection uses per-file version vectors ({!Vector_clock}
    keyed by provider name, fed from filesystem versions); concurrent
    edits merge through {!Conflict}. Each round decides each file once,
    from whether each side deleted it and whether each side changed it
    since the link last saw it. Synchronization is convergent: after
    [sync] with no new writes, both replicas are equal and a second
    [sync] is a no-op. This assumes a file's version only grows while
    the link tracks it. A file deleted and re-created on a side between
    two rounds restarts at version 1, at or below the version the link
    last saw, so the link reads it as unchanged and the replicas do not
    converge.

    {2 Failure model}

    The transport between providers is unreliable, and either provider
    can crash mid-transfer. A link tolerates both, deterministically
    (injected faults come from a seeded {!W5_fault.Fault} plan; time
    is the kernels' logical clock — no wall clock anywhere):

    - {e dropped} deliveries retry with exponential backoff of
      [2^(attempt-1)] logical ticks capped at 8, up to 4 deliveries per
      message; at most 64 ticks of backoff and injected delay are spent
      per round (the link timeout). A delivery that exhausts its
      attempts or the round's budget is abandoned for the round
      ([timed_out] in {!stats}) and retried next round;
    - {e duplicated} deliveries are no-ops: re-applying bytes the
      destination already holds is skipped, so the replica's version
      does not move and no spurious merge ever happens;
    - {e crashes} around the apply are covered by a write-ahead intent
      record persisted in the destination user's home before the
      write. {!recover} (run automatically at the start of every
      {!sync}) replays a pending intent and clears it, after which the
      normal diff pass finds content-equal replicas and moves on.

    Durable state (the intent and the link's seen clocks) lives under
    [.sync/] in the user's home, written with the user's own authority
    — it carries the user's labels like every other record, so crash
    recovery never weakens the flow policy. *)

open W5_store
open W5_platform
open W5_os

type side = {
  platform : Platform.t;
  provider_name : string;
}

type link

type stats = {
  a_to_b : int;    (** records copied from side A to side B *)
  b_to_a : int;
  merged : int;    (** concurrent edits resolved *)
  unchanged : int;
  retried : int;   (** deliveries re-sent after a dropped message *)
  timed_out : int; (** files abandoned this round (attempts/budget spent) *)
  recovered : int; (** write-ahead intents replayed before the round *)
  faulted : int;   (** injected/observed transport faults hit this round *)
}

val establish :
  ?faults:W5_fault.Fault.t ->
  a:side -> b:side -> user:string -> files:string list ->
  unit -> (link, string) result
(** Both platforms must already have the account (the user "linked
    accounts"). [files] are the top-level record files to mirror
    (e.g. [["profile"; "friends"]]); more can be added later.
    [faults] installs a fault plan from the start (default: none).
    Durable seen clocks persisted by an earlier link between the same
    sides are loaded, so a restarted agent resumes where it left
    off. *)

val set_faults : link -> W5_fault.Fault.t -> unit
(** Replace the link's fault plan (e.g. a fresh seeded plan per test
    case). *)

val faults : link -> W5_fault.Fault.t

val add_file : link -> string -> unit

val add_directory : link -> string -> unit
(** Mirror a whole subdirectory of the user's home (e.g. ["photos"]).
    At each {!sync} the union of both replicas' entries is expanded
    into per-file synchronization; files created on either side after
    the link was established are picked up automatically. A file
    named both explicitly and via a directory expansion is worked
    once per round. *)

val directories : link -> string list
val files : link -> string list
val user : link -> string

val sides : link -> side * side
(** (side A, side B) — side A is the link's "home": its kernel owns
    the round's metrics, audit records and trace root. *)

val lag : link -> int
(** Vector-clock lag: version steps of either replica the link's
    durable seen clocks have not acknowledged, summed over the
    worklist. 0 once a clean round has converged; grows while faults
    keep deliveries from completing — the health model's
    "is my peer keeping up" input. *)

val transfer_caps : Account.t -> W5_difc.Capability.Set.t
(** The privileges a user gives a data transfer agent, here and in
    {!Migrate}: [t-] and [t+] over the account's secrecy tag and its
    restricted read tag, each only if the account holds it. *)

val declassify_for_export :
  W5_os.Kernel.ctx -> Account.t -> context:string ->
  (unit, W5_os.Os_error.t) result
(** Drop the account's secrecy tag and its read tag, if any (the tags
    {!transfer_caps} grants over), from the calling agent's label,
    auditing each drop under [context] (["federation.sync"] or
    ["federation.migrate"]). Then deny with the residue unless no
    secrecy is left: the check both exports pass before data leaves
    the platform. *)

val export_record :
  Platform.t -> Account.t -> file:string ->
  (Record.t * int, Os_error.t) result
(** Read + declassify one record with the user-granted privileges;
    returns the record and the filesystem version. Fails with a
    denial if the grant is missing or insufficient. *)

val seen_clock : link -> file:string -> Vector_clock.t
(** The version vector the link last acknowledged for [file]
    ({!Vector_clock.zero} if never synchronized) — what convergence
    tests compare against both replicas' current versions. *)

val intent_file : peer:string -> string
(** Home-relative path of the write-ahead intent record a transfer
    {e from} [peer] persists on the destination before applying —
    where tests inspect the on-disk state a crash left behind. *)

val recover : link -> int
(** Replay and clear any write-ahead intent a crashed round left on
    either side; returns how many intents were recovered. Runs
    automatically at the start of {!sync}; exposed for tests and for
    operators restarting an agent without an immediate round. *)

val sync : link -> (stats, string) result
(** One bidirectional round. Idempotent once converged. Injected
    crashes surface as [Error "crash: ..."] — the simulated provider
    died mid-round; the next [sync] call is the restart and begins by
    running {!recover}. *)

val converged : link -> bool
(** Are all mirrored records byte-equal right now? *)

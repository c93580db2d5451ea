(** Race/TOCTOU detector over the may-happen-in-parallel model.

    [analyze] walks the archetype programs of a {!Mhp.model} and
    reports, in the established vet style (ranked findings, severity
    exit codes):

    - {b stale flow checks} ([High]): a step whose declared dependency
      is not revalidated inside its own dispatch, with the check
      separated from the act by a preemption point and a foreign MHP
      writer able to rewrite the cell in between — the classic
      check-then-act TOCTOU;
    - {b benign commutes} ([Info]): conflicting write/write pairs
      proven order-independent by the join-semilattice laws
      ({!Footprint.commutes}).

    [fold_audit] is the differential-soundness half: replay a real
    scheduler/soak audit log and require every observed cross-thread
    label conflict to lie on the model's predicted surface. *)

type finding =
  | Stale_flow_check of {
      program : string;
      check_op : string;
      act_op : string;
      cell : Footprint.cell;
      writer_program : string;
      writer_op : string;
    }
  | Benign_commute of {
      cell : Footprint.cell;
      prog_a : string;
      op_a : string;
      prog_b : string;
      op_b : string;
      kind_a : Footprint.write_kind;
      kind_b : Footprint.write_kind;
    }

val severity_of : finding -> Severity.t
val kind_of : finding -> string
val message : finding -> string

type report = {
  model : Mhp.model;
  findings : finding list;
  pairs_examined : int;
  pairs_ordered : int;
  pairs_revalidated : int;
}

val analyze : Mhp.model -> report
val worst : report -> Severity.t option
val exit_code : report -> int

val mhp_steps :
  Mhp.model -> Mhp.step array -> int -> Mhp.step array -> int -> bool
(** Can step [i] of one instance and step [j] of a distinct instance
    end up adjacent in some admitted schedule (either order)? Exposed
    so the exhaustive-oracle test can compare this judgment against
    {!Mhp.interleavings} directly. *)

val predicted_cells : Mhp.model -> Footprint.cell list
(** The cells on which the model admits any cross-instance conflict —
    the predicted interference surface. *)

val model_of_static : Static.t -> Mhp.model
(** Archetype programs (app handler, declassifier gate body, owner
    session) with multiplicities taken from the snapshot, under the
    real scheduler's preemption constants. *)

val seed_toctou : Mhp.model -> Mhp.model
(** The deliberately-broken variant for CI: adds a cached-writer
    program whose [fs.write] spec is nerfed to revalidate nothing —
    the shape of a response cache trusting a pre-preemption check.
    [analyze] must report a [Stale_flow_check] (exit 3) on it. *)

(** {2 Differential replay} *)

type replay = {
  events_seen : int;
  threads_seen : int;
  interleavings_observed : int;
  conflicts_observed : int;
  unpredicted : string list;
  atomic_violations : string list;
}

val fold_audit : Mhp.model -> W5_os.Audit.log -> replay
(** Replay an audit log: gate children are folded into their caller's
    thread; each same-thread gap with foreign events inside is an
    observed interleaving; label conflicts between the intruder and
    the gap ends must be on {!predicted_cells}' surface, and nothing
    may intrude between two gate-atomic events. *)

val replay_worst : replay -> Severity.t option
val replay_exit_code : replay -> int

(** {2 Rendering and metrics} *)

val to_text : report -> string
val to_json : report -> string
(** Schema ["w5.interfere/1"]; deterministic field order. *)

val to_dot : report -> string
val replay_to_text : replay -> string

val export_metrics : W5_obs.Metrics.t -> report -> unit
(** Publish [w5_interfere_findings_total{severity}] gauges — label
    values are the closed severity set, never user data. *)

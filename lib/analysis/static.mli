(** The whole-platform static flow graph (the tentpole of `w5 vet`).

    {!capture} folds every piece of configuration that determines what
    can ever cross the perimeter — account tags and capability sets,
    per-user {!W5_platform.Policy} tables (export rules, app
    enablement, read grants, write delegations), the
    {!W5_platform.App_registry} with its import/embed edges and
    open-vs-closed source, {!W5_os.Kernel} gate registrations
    (declassifiers), and {!W5_platform.Group} memberships — into one
    immutable snapshot over tag {e names} ({!Absdom}).

    The model deliberately over-approximates the runtime:

    - any process may taint itself with any non-restricted secrecy tag
      (self-tainting is always allowed), so the Tag → App edge set is
      dense and only {e restricted} tags carry precision;
    - a restricted tag reaches an app if {e any} viewer/grant
      combination could supply the [t+] capability (read grants are
      per-app; a group tag reaches every app as long as the group has
      a member who might be the viewer);
    - a tag reaches the public network if the owner-direct boilerplate
      applies (always, toward the owner) or its policy routes it
      through a registered gate holding [t-] for it.

    Everything the snapshot exposes is keyed and sorted by name so
    reports render deterministically. *)

open W5_difc
open W5_platform

(** The role a tag plays in the platform's naming conventions. *)
type tag_kind =
  | Secret     (** a user's [<u>.secret] tag *)
  | Read       (** a user's restricted [<u>.read] tag *)
  | Group_tag  (** a group's restricted [group:<name>] tag *)
  | Write      (** a user's [<u>.write] integrity tag *)
  | Other      (** anything else that showed up in a policy or gate *)

type tag_info = {
  tag : Tag.t;
  tag_name : string;
  secrecy : bool;       (** belongs to the secrecy lattice *)
  restricted : bool;
  kind : tag_kind;
  owner : string option;  (** account answering for its export policy *)
  rule : string option;   (** gate the owner's policy routes it through *)
}

type app_info = {
  app_id : string;
  version : string;        (** latest published version *)
  open_source : bool;
  imports : string list;
  embeds : string list;
  enabled_by : string list;
  installs : int;
  vetted : bool;
}

type gate_info = {
  gate : string;
  gate_owner : string;          (** owning principal's name *)
  adds : string list;           (** secrecy tags it holds [t+] for *)
  drops : string list;          (** secrecy tags it holds [t-] for *)
  authorized_for : string list; (** tags some policy routes through it *)
}

type group_info = {
  group_name : string;
  group_tag : string;
  founder : string;
  group_members : string list;
}

type t

val capture : Platform.t -> t
(** Read-only walk of the platform; the platform is not mutated and
    no processes are spawned. Capture the snapshot {e after} all
    configuration changes and {e before} the workload whose audit log
    you intend to check — the soundness claim is about runs whose
    configuration the snapshot saw. *)

val enforcing : t -> bool
val users : t -> string list
val tags : t -> tag_info list
(** Sorted by name; likewise [apps] by id and [gates] by name. *)

val apps : t -> app_info list
val gates : t -> gate_info list
val groups : t -> group_info list

val foreign_minus : t -> (string * string) list
(** [(account, tag)] pairs where an account's capability set carries
    [t-] for a secrecy tag owned by {e another} account — a hole in
    the "declassification lives only in gates" story. *)

val find_tag : t -> string -> tag_info option
val find_gate : t -> string -> gate_info option
val is_app : t -> string -> bool

(** Who performed a runtime action, as classified from the audit log. *)
type holder = App of string | Gate of string | Tcb

(** A three-valued judgment: [Predicted] means the static graph
    contains the edge; [Unpredicted] is a soundness alarm; [Unknown]
    means the tag was minted after the snapshot (counted separately —
    the snapshot cannot speak about it either way). *)
type verdict = Predicted | Unpredicted | Unknown

val can_carry : t -> holder -> string -> verdict
(** May a process of this class ever absorb the named secrecy tag? *)

val may_drop : t -> holder -> string -> verdict
(** May it declassify the tag away? Apps never can; gates only for
    tags in their registered capability set. *)

val may_export : t -> tag:string -> viewer:string option -> verdict
(** May data tainted with [tag] cross the perimeter toward [viewer]?
    Owner-direct boilerplate, or an authorized gate holding [t-]. *)

val absorbable : t -> app:string -> Absdom.t
(** All {e known} secrecy tags reachable by the app — the dense
    non-restricted set plus whatever restricted grants apply. *)

(** Where a secrecy tag's export story ends. *)
type disposition =
  | Owner_only                 (** no rule: only the owner ever sees it *)
  | Via_gate of string         (** routed through a working gate *)
  | Broken of { gate : string; missing : bool }
      (** routed through a gate that is unregistered ([missing]) or
          lacks [t-] for the tag — every export will fail *)

val disposition : t -> tag_info -> disposition

val to_dot : t -> string
(** The static flow graph in Graphviz DOT (same dialect as
    {!W5_os.Explain.explain_dot}): tags (ellipses; dashed when
    restricted), gates (hexagons), apps (boxes; filled when closed
    source), the public network sink, policy/grant/import edges.
    Dense non-restricted Tag → App edges are elided — a legend node
    says so — because they hold for every pair. *)

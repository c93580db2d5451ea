(** Declassifiers: the only holes in the security perimeter (§3.1).

    A declassifier is a small, pluggable, auditable agent that holds a
    user's export privilege ([t-]) and decides, per export attempt,
    whether data tainted by that user's tags may cross the perimeter
    toward a given viewer. Two properties from the paper:

    - {b data-structure agnostic}: the decision logic sees the viewer
      and an opaque payload; the same friend-list declassifier serves
      the photo app and the blog app;
    - {b factored out and small}: logic is a single function, simple
      enough to audit; it runs in its own kernel process via a gate,
      so the privilege never leaks into application code.

    Mechanically: {!install} registers a kernel gate whose capability
    set carries [t-] for the user's secrecy tags (and [t+] for the
    read-protection tag, so it can absorb protected payloads). The
    perimeter invokes the gate; the gate runs the logic; on approval
    it {e actually declassifies} — drops the tags from its own label —
    and responds with the (possibly transformed) payload, which
    therefore carries a smaller label. *)

open W5_os

type logic =
  Kernel.ctx -> owner:string -> viewer:string option -> data:string ->
  string option
(** Return [Some payload] to export (possibly transformed), [None] to
    refuse. The logic may read the owner's files (e.g. the friend
    list) through ordinary tainting syscalls. *)

val gate_name : owner:string -> name:string -> string
(** ["declass/<owner>/<name>"]. *)

val encode_arg : viewer:string option -> data:string -> string
(** The wire format the perimeter uses to call a gate: the frame
    [<n>:<viewer><data>], where [<n>] is the viewer's length in
    decimal and an empty viewer ([0:]) means anonymous. The payload is
    copied once and never escaped. *)

val decode_arg : string -> (string option * string) option
(** The inverse of {!encode_arg}, used by every gate. It never raises:
    it returns [None] when the argument has no [':'], when the prefix
    before the first [':'] is empty or holds anything but ASCII digits
    (so no sign, [0x] or [_]), or when the length runs past the end.
    A gate treats [None] as a refusal. *)

val install : Platform.t -> account:Account.t -> name:string -> logic -> string
(** Register the gate for this account and return its name. The gate's
    capability set is fixed at installation: if the user enables read
    protection {e afterwards}, existing gates cannot clear the new
    restricted tag and must be reinstalled — privilege never grows
    behind the user's back. *)

val install_and_authorize :
  Platform.t -> account:Account.t -> name:string -> logic -> string
(** {!install}, then point the account's export rules for {e all} of
    its secrecy tags at the new gate. *)

(** {1 Stock decision logics} *)

val everyone : logic
(** Export to anyone — the "public data" policy. *)

val nobody : logic
(** Refuse every export. Equivalent to having no rule, but lets a user
    install an explicit tombstone. *)

val owner_only : logic
(** Export only when the viewer is the data's owner. (The perimeter's
    boilerplate already allows owner exports without any declassifier;
    this exists for users who route everything through one gate.) *)

val friends_only : logic
(** Read [/users/<owner>/friends], export iff the viewer appears in
    its [friends] list. The paper's canonical example. *)

val group : members:string list -> logic
(** Export iff the viewer is in a fixed member list — an idiosyncratic
    user-supplied policy. *)

val watermarked : stamp:string -> logic -> logic
(** Wrap another logic, appending a visible stamp to whatever it
    exports — demonstrates payload transformation in a declassifier. *)

(** {1 Marked-span transformations}

    Declassifiers are data-structure agnostic (§3.1) — they cannot
    parse application formats. The platform therefore defines one
    byte-level convention both sides speak: applications may wrap
    sensitive spans in {!secret_span} markers, and any declassifier
    can redact or veto marked content without understanding what it
    is. The same redacting declassifier then serves a calendar (hide
    event titles), a poll (block raw ballots) or anything else. *)

val secret_open : string
val secret_close : string

val secret_span : string -> string
(** Wrap content in the sensitive-span markers. *)

val contains_secret_span : string -> bool

val redact_spans : ?replacement:string -> string -> string
(** Replace every marked span (markers included) by [replacement]
    (default ["\u{2588}\u{2588}\u{2588}"]). Unterminated spans are
    redacted to the end. *)

val redacting : ?replacement:string -> logic -> logic
(** Export whatever [logic] allows, with marked spans redacted. The
    owner still sees originals: the perimeter skips declassifiers
    entirely for data going to its owner. *)

val require_no_secrets : logic -> logic
(** Refuse the export if the payload still carries any marked span —
    "aggregate results may leave; raw entries may not". *)

(** Flow judgments and the safe-label-change rule.

    These are the two checks the whole platform rests on:

    - {b flow}: data labeled [(S_src, I_src)] may move to a sink
      labeled [(S_dst, I_dst)] iff [S_src ⊆ S_dst] and
      [I_dst ⊆ I_src]. Secrecy only accumulates; integrity only
      erodes.
    - {b safe label change}: a process owning capability set [O] may
      replace its label [L] with [L'] iff every added tag has [t+] in
      [O] and every dropped tag has [t-] in [O].

    Every denial carries a structured explanation so the audit log
    (§3.5 "Debugging") can report failures without exposing data. *)

(** The pair of labels carried by every process, file, message and
    HTTP response in the system. *)
type labels = {
  secrecy : Label.t;
  integrity : Label.t;
}

val bottom : labels
(** [{ secrecy = {}; integrity = {} }]: public, unvouched data. *)

val make : ?secrecy:Label.t -> ?integrity:Label.t -> unit -> labels
val equal_labels : labels -> labels -> bool
val pp_labels : Format.formatter -> labels -> unit

val join : labels -> labels -> labels
(** Label of data derived from two sources: secrecy unions, integrity
    intersects. *)

(** Why a flow or label change was refused. *)
type denial =
  | Secrecy_violation of Label.t
      (** Tags present at the source but missing at the sink. *)
  | Integrity_violation of Label.t
      (** Tags required by the sink but not vouched by the source. *)
  | Unauthorized_add of Label.t
      (** Label change adds tags without [t+]. *)
  | Unauthorized_drop of Label.t
      (** Label change drops tags without [t-]. *)

val pp_denial : Format.formatter -> denial -> unit
val denial_to_string : denial -> string

val can_flow : labels -> labels -> bool
(** [can_flow src dst] is the boolean flow judgment. *)

val check_flow : labels -> labels -> (unit, denial) result
(** Like {!can_flow} but explains the first violated condition. Only
    denials compute the explanatory diffs. *)

val can_flow_with :
  ?src_caps:Capability.Set.t -> ?dst_caps:Capability.Set.t ->
  labels -> labels -> bool
(** Flow judgment modulo capabilities, as at a Flume endpoint: tags
    the source can drop ([t-]) are ignored on the secrecy side, tags
    the destination can add ([t+]) are ignored as well, and dually for
    integrity. This is what lets a declassifier receive data it will
    re-export. *)

val check_label_change :
  caps:Capability.Set.t -> old_label:Label.t -> new_label:Label.t ->
  (unit, denial) result
(** The Flume safe-label-change rule for a single lattice. *)

val check_labels_change :
  caps:Capability.Set.t -> old_labels:labels -> new_labels:labels ->
  (unit, denial) result
(** Safe change applied to both lattices of a {!labels} pair. *)

val raise_secrecy : Label.t -> labels -> labels
(** [raise_secrecy taint l] joins [taint] into the secrecy label:
    the implicit taint a reader acquires. Always safe (secrecy grows). *)

val export_blockers :
  caps:Capability.Set.t -> labels -> Label.t
(** Tags in the secrecy label that the holder of [caps] cannot
    declassify away: the residual label that keeps data inside the
    perimeter. Empty means the data may be exported. *)

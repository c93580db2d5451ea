(** Provenance from the audit log (§3.5 "Debugging").

    Each tag-moving audit entry reads as one edge citing its [seq] and
    [tick]. From the log alone, with no copy of it, this module answers
    the three questions the paper's debugging story needs:

    + {b explain}: why was this denied? ({!explain})
    + {b provenance}: how did this tag get onto this file or
      process? ({!file_provenance}, {!process_provenance})
    + {b audit-report}: what are the declassifiers and apps doing at
      the aggregate level? ({!report})

    Outputs name pids, paths, tags, destinations and audit seqs, never
    user bytes. When the log has evicted entries ({!Audit.evicted}) a
    slice may stop early, and every rendering ends by saying how many
    entries were evicted. *)

(** Where a tag can live or go. *)
type node =
  | Process of int    (** a kernel pid *)
  | Object of string  (** a filesystem path *)
  | Remote of string  (** an off-platform destination or federation peer *)

(** One audited event as an arc. [tags] are the secrecy tag {e names}
    it carried or introduced; [denied] renders the denial when the
    event was refused; [detail] is a data-free annotation (a
    declassifier context, a sync direction). *)
type edge = {
  kind : string;
  src : node;
  dst : node;
  seq : int;
  tick : int;
  tags : string list;
  denied : string option;
  detail : string option;
}

val edge_of_entry : Audit.entry -> edge option
(** Reads and absorptions point into the process; writes, spawns and
    exports out of it. [None] for kills, quota hits and notes. *)

val slice : Audit.log -> tags:string list -> before:int -> node -> edge list
(** The edges that carried one of [tags] ([[]]: any tag) toward [node]
    before seq [before] ([max_int]: no horizon), oldest first. One
    newest-first pass: an edge joins when it enters a node on the
    frontier and carries a requested tag, and its source then joins
    the frontier. Every entry the pass meets after that is older, so
    causes always precede their effects. *)

val find_denial :
  Audit.log -> ?seq:int -> ?pid:int -> unit -> Audit.entry option
(** The denial to explain: the entry at [seq] if given (and actually a
    denial), otherwise the {e most recent} denial by [pid] if given,
    otherwise the most recent denial overall. *)

val explain : Audit.log -> Audit.entry -> (edge list, string) result
(** The causal chain of a denial: the slice from the denied process
    before the denial over its tags, then the denial itself. [Error]
    when the entry is not a denial. *)

val explain_text : Audit.log -> Audit.entry -> (string, string) result
(** {!explain} one edge per line,
    ["#27 t=41 pid 7 (mal/thief) -[export]-> evil.example {alice.secret} DENIED: ..."],
    naming each process after the newest [Spawned] or [Gate_invoked]
    entry that names it. *)

val explain_dot : Audit.log -> Audit.entry -> (string, string) result
(** The same chain as Graphviz DOT. *)

val file_provenance : Audit.log -> path:string -> (string * edge list) list
(** Each secrecy tag of the file's {e most recent} labeling edge
    (create, mkdir, relabel) with its slice into the file. Tags from
    superseded labelings are not reported. *)

val process_provenance : Audit.log -> pid:int -> (string * edge list) list
(** Each secrecy tag the process carries now, counting the labels it
    started with ([Spawned], or a gate child's caller's at the call),
    with its slice into the process; for a tag a gate child inherited,
    the caller's history of it and the [gate] edge come first. *)

val provenance_text :
  Audit.log -> target:string -> (string * edge list) list -> string
(** What [w5 provenance] prints for [target]'s histories. *)

val report : Audit.log -> string
(** The provider-side rollup: declassifications by gate and tag,
    denials by reason and by operation, exports by destination,
    denials by app, most-tainted paths, and the log's eviction
    count. Deterministic (counts descending, names ascending) so it
    can be golden-tested. *)

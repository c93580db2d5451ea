(** The kernel audit log (§3.5 "Debugging").

    W5 cannot hand core dumps to developers — a dump of a process that
    read private data *is* private data. Instead the kernel records
    every security decision as a structured, data-free event. A
    developer (or the provider) can query the log for their own
    processes' denials; the log stores labels, tag names and object
    {e identities} (paths, pids, destinations) but never user bytes.

    Entries carry enough causal identity — which file a flow check
    guarded, which peer an IPC absorbed tags from — for
    {!W5_os.Explain} to trace provenance from the log alone. *)

open W5_difc

(** The object a flow check or taint event was about. Identities only:
    a path or pid names {e where} data moved, never what it said. *)
type subject =
  | No_subject
  | File of string   (** a filesystem path *)
  | Peer of int      (** the other process in an IPC or gate exchange *)
  | Gate of string   (** a declassifier gate, by registered name *)

(** What happened. *)
type event =
  | Flow_checked of {
      op : string;               (** e.g. ["fs.read"], ["ipc.send"] *)
      src : Flow.labels;
      dst : Flow.labels;
      decision : (unit, Flow.denial) result;
      subject : subject;         (** what the check guarded *)
    }
  | Label_changed of {
      old_labels : Flow.labels;
      new_labels : Flow.labels;
      decision : (unit, Flow.denial) result;
    }
  | Export_attempted of {
      destination : string;
      labels : Flow.labels;
      decision : (unit, Flow.denial) result;
    }
  | Declassified of { tag : Tag.t; context : string }
      (** [context] names the authority under which the tag was
          dropped: a gate name, ["ipc.send"], ["federation.sync"]. *)
  | Tainted of { op : string; subject : subject; added : Label.t }
      (** A process absorbed new secrecy tags — the only way taint
          spreads, and therefore the edges provenance walks backward.
          [added] is the set of tags the process did not carry
          before. *)
  | Object_labeled of { op : string; path : string; labels : Flow.labels }
      (** A filesystem object was created or relabeled; records where
          each file's tags came from. *)
  | Sync_applied of { peer : string; path : string; direction : string }
      (** A federation round copied [path] to/from [peer]
          ([direction] is ["push"] or ["pull"]). *)
  | Sync_fault of { path : string; action : string; attempt : int }
      (** An injected (or, in a real deployment, observed) transport
          fault hit a federation transfer of [path]: [action] is the
          {!W5_fault.Fault.action_name} vocabulary and [attempt] the
          delivery attempt it disrupted — how [w5 explain] answers
          "why did this sync take 3 attempts". *)
  | Sync_recovered of { peer : string; path : string; phase : string }
      (** Crash-restart recovery replayed the write-ahead sync intent
          for [path]: [phase] is ["pending"] (the crash hit before the
          apply, the write was completed from the intent) or
          ["applied"] (the crash hit after the apply; only the
          bookkeeping was finished). *)
  | Spawned of { child : int; name : string; labels : Flow.labels }
      (** [labels] are the child's initial labels — the provenance
          root for everything the child later taints. *)
  | Gate_invoked of { gate : string; child : int }
  | Killed of { reason : string }
  | Quota_hit of Resource.kind
  | App_note of string  (** a developer-supplied, data-free debug note *)

type entry = {
  seq : int;
  tick : int;       (** kernel logical clock at the time of the event *)
  pid : int;        (** acting process, 0 for the kernel itself *)
  event : event;
}

type log

val create : capacity:int -> log
(** A log that retains exactly the newest [capacity] entries: once
    [capacity] events have been recorded, each new one overwrites the
    oldest in place. Sequence numbers keep counting, so truncation is
    observable (see {!evicted}). Its slots are allocated as the log
    first fills, so a log that records little stays small; a full log
    neither grows nor copies.
    @raise Invalid_argument if [capacity < 1]. *)

val record : log -> tick:int -> pid:int -> event -> unit

val length : log -> int
(** Retained entries: [min n capacity] after [n] records. *)

val evicted : log -> int
(** How many entries truncation has discarded so far: [max 0 (n -
    capacity)] after [n] records, which is the [seq] of the newest
    entry minus {!length}. The retained entries are exactly seqs
    [evicted + 1] to [evicted + length]. Every query below sees only
    that window: when [evicted] is non-zero, an empty result means
    "not in the retained window", not "never happened". *)

val entries : log -> entry list
(** Oldest first. *)

val iter : log -> f:(entry -> unit) -> unit
(** Visit entries oldest first without materializing the {!entries}
    list — what the tracer and [denials]-style queries should use. *)

val fold : log -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Oldest-first fold, same allocation guarantee as {!iter}. *)

val fold_back : log -> before:int -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Newest-first fold over the retained entries with [seq < before]
    ([max_int] for all of them), same allocation guarantee as
    {!iter}. *)

val query :
  log ->
  ?pid:int ->
  ?kind:string ->
  ?seq_from:int ->
  ?seq_to:int ->
  ?denials_only:bool ->
  unit ->
  entry list
(** Filtered scan, oldest first; all filters conjoin. [kind] matches
    {!event_kind} strings. [seq_from]/[seq_to] are inclusive; the scan
    visits only the retained slots in that range and builds an
    {!entry} only for a match, so a one-seq lookup costs one slot.
    Asking for sequence numbers older than the retained window (see
    {!evicted}) yields fewer entries than the range implies, silently
    — callers that care should compare against [evicted]. *)

val denials : log -> entry list
(** Only the entries whose decision was a denial. *)

val for_pid : log -> int -> entry list

val is_denial : entry -> bool

val event_kind : event -> string
(** Constructor name as a low-cardinality telemetry label, e.g.
    ["flow_checked"] — safe to export, unlike the payload. *)

val pp_entry : Format.formatter -> entry -> unit

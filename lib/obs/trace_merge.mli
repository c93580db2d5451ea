(** Assembling per-provider span rings into one cross-provider trace.

    Each provider's {!Tracer} only ever sees its own spans; what ties
    a federated operation together is the {!Trace_context} a handoff
    carries, recorded as fields on the remote side's root span
    ({!Tracer.handoff}). [merge] walks every provider's
    completed roots, finds those breadcrumbs, and reattaches each
    remote subtree under the span that spawned it — yielding the one
    causal tree the operation actually was, faults and retries
    included (they are ordinary event spans inside it).

    Ticks in a merged tree are {e per-provider} logical clocks:
    comparable along same-provider edges, related only through the
    recorded handoff tick across providers. The renderers therefore
    always name the provider next to every span.

    A context pointing at a span nobody recorded (evicted ring, forged
    fields) leaves that subtree a root of its own — merging degrades
    to the unmerged forest, it never invents an edge or a cycle. *)

type node = {
  node_provider : string;
  node_span : Span.t;
  node_remote : Trace_context.t option;
      (** [Some] iff this span is a remote continuation (carries a
          handoff context). *)
  mutable node_children : node list;
      (** local children in recorded order, then attached remote
          continuations in merge order. *)
}

type forest = node list

val merge : (string * Span.t list) list -> forest
(** [(provider, completed roots)] per provider — drained tracer rings,
    oldest first. Roots stay in input order (providers first, then each
    provider's roots); remote continuations whose parent is present
    move under it. Deterministic for deterministic input. *)

val fold :
  forest -> init:'a -> f:('a -> depth:int -> node -> 'a) -> 'a
(** Depth-first, pre-order, roots in order — what property tests and
    canary sweeps walk. *)

val span_count : forest -> int

val to_text : forest -> string
(** Indented tree, one span per line:
    ["[provider] name  [t1..t9 +8]  k=v  (hop from east#3 @t14)"];
    remote continuations are marked with a leading ["~ "]. Context
    fields render as the hop marker, not as raw fields. *)

val to_json : forest -> string
(** [{"traces":[{"provider":…,"name":…,"span_id":…,"start_tick":…,
    "end_tick":…,"remote":{…}?,"fields":{…}?,"children":[…]}]}]. *)

val to_dot : forest -> string
(** Graphviz rendering via {!Dot}: one node per span labeled
    [provider: name], dashed nodes/edges for cross-provider hops. *)

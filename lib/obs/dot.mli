(** Minimal Graphviz DOT assembly, shared by [W5_os.Explain],
    {!Trace_merge} and [W5_analysis.Static] so all three emit the same
    dialect (labels quoted and escaped, bare identifier values
    unquoted, [rankdir] header, two-space indent).

    The helpers return single lines without trailing newlines;
    {!digraph} joins them into a complete document. *)

val ident : string -> string
(** Flatten an arbitrary string into a safe DOT identifier (anything
    outside [A-Za-z0-9] becomes ['_']). Distinct inputs may collide;
    callers that need uniqueness should prefix a discriminator. *)

val node : ?attrs:(string * string) list -> string -> label:string -> string
(** [node id ~label ~attrs] renders ["  id [label=\"…\",k=\"v\"];"].
    [id] must already be a valid identifier (see {!ident}). *)

val edge : ?attrs:(string * string) list -> string -> string -> string
(** [edge src dst] renders ["  src -> dst [k=\"v\"];"]. *)

val digraph : ?rankdir:string -> string -> string list -> string
(** Wrap pre-rendered lines into ["digraph <name> { rankdir=…; … }\n"].
    [rankdir] defaults to ["LR"]. *)

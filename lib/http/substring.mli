(** Substring search that allocates nothing while it scans.

    Comparing [String.sub hay i n = needle] at every offset allocates a
    fresh string per byte of the haystack; these compare in place. *)

val find : ?from:int -> string -> string -> int option
(** [find ?from hay needle] is the offset of the first occurrence of
    [needle] in [hay] at or after [from] (default 0). An empty needle
    occurs at [from] when [from <= String.length hay].
    @raise Invalid_argument if [from] is negative. *)

val find_ci : ?from:int -> string -> string -> int option
(** As {!find}, comparing ASCII letters case-insensitively. *)

val contains : string -> string -> bool
(** [contains hay needle] is [find hay needle <> None]. *)

(** The platform's open record format.

    §3.2 of the paper worries about "anti-social" applications that
    entrench themselves by storing user data in proprietary formats.
    W5's editorial answer is a conventional, self-describing format
    that every honest application uses: an ordered list of string
    fields with a line-oriented, escaped, canonical encoding. Any
    application (and any editor auditing one) can decode any record.

    Encoding: one [key=value] line per field; ['%'], ['='] and
    newlines inside keys or values are percent-escaped ([%25], [%3d],
    [%0a]), so decoding is unambiguous and round-trips exactly. The
    codec copies the runs between escapes in bulk. The encoding itself
    is fixed: stored records, snapshots, bundles and sync payloads are
    these bytes, and a differential test holds the codec to a
    byte-at-a-time reference. *)

type t

val empty : t
val of_fields : (string * string) list -> t
val fields : t -> (string * string) list
val get : t -> string -> string option
val get_or : t -> string -> default:string -> string
val set : t -> string -> string -> t
(** Replaces the first binding of the key (or appends). *)

val remove : t -> string -> t
val mem : t -> string -> bool
val keys : t -> string list
val cardinal : t -> int
val equal : t -> t -> bool

val get_int : t -> string -> int option
val set_int : t -> string -> int -> t
val get_list : t -> string -> string list
(** A field holding a [','ered] list; absent field is the empty list. *)

val set_list : t -> string -> string list -> t

val encode : t -> string
val decode : string -> (t, string) result
(** [decode (encode r) = Ok r] for every [r]; malformed input yields a
    description of the first bad line. *)

val pp : Format.formatter -> t -> unit

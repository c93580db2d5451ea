(** HTML utilities and the client-side-script perimeter filter.

    §3.5 ("Client-side support"): W5 lets developers upload arbitrary
    HTML, which exacerbates cross-site scripting. The blunt instrument
    the paper proposes is to "disable JavaScript entirely by filtering
    it out at the security perimeter"; per-user relaxation in the
    MashupOS style is layered on top by the platform's policy
    (see {!W5_platform.Policy}). This module is the filter itself. *)

val escape : string -> string
(** Escape ampersand, angle brackets and both quote characters for
    safe inclusion in HTML text or attributes. *)

val page : title:string -> string -> string
(** A minimal, well-formed HTML page around a body fragment. *)

val element : string -> ?attrs:(string * string) list -> string -> string
(** [element "div" ~attrs:["class","x"] body] — attribute values are
    escaped; the body is trusted markup and included verbatim. *)

val text : string -> string
(** Escaped text node. *)

val link : href:string -> string -> string
val ul : string list -> string

val contains_script : string -> bool
(** Detects [<script] tags, [on*=] event-handler attributes inside a
    tag and [javascript:] URLs, case-insensitively. HTML whitespace
    (space, tab, newline, carriage return, form feed) may separate a
    handler's name from its ['='], and tabs and newlines may sit inside
    the [javascript:] scheme, as browsers accept both. One linear scan
    that allocates nothing. *)

val strip_scripts : string -> string
(** Remove everything {!contains_script} detects: [<script>…</script>]
    elements (and any unterminated [<script] tail), inline event
    handler attributes with their values, and [javascript:] URL
    schemes. Linear: a removal that joins its neighbours into a new
    construct ("<scr<script>…</script>ipt>") is caught as the output is
    written, not by scanning the result again. The result always
    satisfies [not (contains_script (strip_scripts html))], and a page
    with nothing to strip comes back as the same string, physically
    equal, with nothing copied. *)

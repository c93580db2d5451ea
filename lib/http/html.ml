let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let page ~title body =
  Printf.sprintf
    "<!doctype html><html><head><title>%s</title></head><body>%s</body></html>"
    (escape title) body

let element tag ?(attrs = []) body =
  let attr_str =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (escape v)) attrs)
  in
  Printf.sprintf "<%s%s>%s</%s>" tag attr_str body tag

let text = escape
let link ~href label = element "a" ~attrs:[ ("href", href) ] (escape label)
let ul items = element "ul" (String.concat "" (List.map (element "li") items))

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_alnum c = is_letter c || (c >= '0' && c <= '9')

(* HTML attribute whitespace; browsers accept it between an attribute
   name and its '=', so "onclick\t=" is still a handler. *)
let is_space = function ' ' | '\t' | '\n' | '\r' | '\x0c' -> true | _ -> false

(* URL parsers delete tabs and newlines anywhere in a URL, so
   "java\tscript:" still names the javascript scheme. *)
let is_url_noise = function '\t' | '\n' | '\r' -> true | _ -> false

type script = Script_element | Event_handler | Javascript_url

(* The scanning helpers below are top-level functions with every input
   as an argument: a local closure would allocate on each call, and the
   clean-page scan must allocate nothing. *)

(* [pattern] (lowercase) matches [b] from [i + k] on, ignoring case. *)
let rec matches_ci b i pattern k =
  k = String.length pattern
  || Char.lowercase_ascii (Bytes.unsafe_get b (i + k))
     = String.unsafe_get pattern k
     && matches_ci b i pattern (k + 1)

let rec back_over pred b j =
  if j >= 0 && pred (Bytes.unsafe_get b j) then back_over pred b (j - 1) else j

(* Each construct is recognised at its last byte, reading backward
   from [b.[e - 1]]; the recognisers return where it starts, or -1. *)

let js_scheme = "javascript"

(* [js_scheme.[0..k]] ends at [b.[j]], URL noise allowed between
   letters *)
let rec scheme_start b j k =
  if k < 0 then j + 1
  else if j < 0 then -1
  else
    let c = Bytes.unsafe_get b j in
    if Char.lowercase_ascii c = String.unsafe_get js_scheme k then
      scheme_start b (j - 1) (k - 1)
    else if is_url_noise c then scheme_start b (j - 1) k
    else -1

(* "on", at least one more letter, optional whitespace, '=' — with no
   letter or digit right before the "on". *)
let handler_start b e =
  let name_end = back_over is_space b (e - 2) in
  let s = back_over is_letter b name_end + 1 in
  if
    name_end - s >= 2
    && (s = 0 || not (is_alnum (Bytes.unsafe_get b (s - 1))))
    && matches_ci b s "on" 0
  then s
  else -1

(* Every construct ends in one of these bytes. *)
let may_complete = function 't' | 'T' | ':' | '=' -> true | _ -> false

(* The construct, if any, that byte [b.[e - 1]] completes, and where it
   starts. [in_tag] says whether that byte sits between '<' and '>': a
   handler only counts there ("ongoing = fine" in body text is not
   executable). *)
let completed b e ~in_tag =
  let found kind s = if s < 0 then None else Some (kind, s) in
  match Bytes.unsafe_get b (e - 1) with
  | 't' | 'T' ->
      if e >= 7 && matches_ci b (e - 7) "<script" 0 then
        Some (Script_element, e - 7)
      else None
  | ':' ->
      found Javascript_url
        (scheme_start b (e - 2) (String.length js_scheme - 1))
  | '=' when in_tag -> found Event_handler (handler_start b e)
  | _ -> None

(* Reads each byte once and allocates nothing. *)
let rec scan b i in_tag =
  i < Bytes.length b
  &&
  match Bytes.unsafe_get b i with
  | '<' -> scan b (i + 1) true
  | '>' -> scan b (i + 1) false
  | c when may_complete c && Option.is_some (completed b (i + 1) ~in_tag) ->
      true
  | _ -> scan b (i + 1) in_tag

let contains_script html = scan (Bytes.unsafe_of_string html) 0 false

(* Skip an attribute value starting right after its '=': a quoted
   string or an unquoted token. *)
let skip_value html i =
  let n = String.length html in
  let rec skip pred j = if j < n && pred html.[j] then skip pred (j + 1) else j in
  let i = skip is_space i in
  if i >= n then n
  else
    match html.[i] with
    | ('"' | '\'') as quote -> (
        match String.index_from_opt html (i + 1) quote with
        | Some j -> j + 1
        | None -> n)
    | _ -> skip (fun c -> c <> '>' && not (is_space c)) i

(* The rewriting pass copies [html] into [out] and checks the output as
   it grows rather than the input: a removal can join the bytes on
   either side of it into a new construct ("<scr<script>x</script>ipt>"),
   and the check catches that the moment its last byte is written.
   [inside.[k]] records whether output byte [k] sits inside a tag, so a
   removal restores the tag state at once. *)
let rec rewrite html out inside i len in_tag =
  if i >= String.length html then Bytes.sub_string out 0 len
  else
    let c = String.unsafe_get html i in
    let in_tag = match c with '<' -> true | '>' -> false | _ -> in_tag in
    Bytes.unsafe_set out len c;
    Bytes.unsafe_set inside len (if in_tag then '\001' else '\000');
    match if may_complete c then completed out (len + 1) ~in_tag else None with
    | None -> rewrite html out inside (i + 1) (len + 1) in_tag
    | Some (kind, s) ->
        let resume =
          match kind with
          | Script_element -> (
              (* through the close tag, or everything if unterminated *)
              match Substring.find_ci ~from:(i + 1) html "</script>" with
              | Some j -> j + String.length "</script>"
              | None -> String.length html)
          | Event_handler -> skip_value html (i + 1)
          | Javascript_url -> i + 1
        in
        rewrite html out inside resume s
          (s > 0 && Bytes.unsafe_get inside (s - 1) = '\001')

let strip_scripts html =
  if not (contains_script html) then html
  else
    let n = String.length html in
    rewrite html (Bytes.create n) (Bytes.create n) 0 0 false

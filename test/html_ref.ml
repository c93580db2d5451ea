(* Reference perimeter script filter for differential tests of
   [W5_http.Html]: it lowercases a copy of the page, compares a
   String.sub at every offset and re-runs itself until nothing is left
   to strip. Slow on purpose; its value is that it is obviously what
   it says. It knows only the space character as attribute
   whitespace. *)

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_alnum c = is_letter c || (c >= '0' && c <= '9')

let lowercase_at low i prefix =
  let n = String.length prefix in
  i + n <= String.length low && String.sub low i n = prefix

(* An event-handler attribute starts at [i] if "on" appears on a word
   boundary, followed by letters, optional spaces, then '='. Returns
   the position just after the '=' when matched. *)
let handler_at low i =
  let n = String.length low in
  let boundary = i = 0 || not (is_alnum low.[i - 1]) in
  if (not boundary) || not (lowercase_at low i "on") then None
  else
    let rec letters j = if j < n && is_letter low.[j] then letters (j + 1) else j in
    let j = letters (i + 2) in
    if j = i + 2 then None
    else
      let rec spaces j = if j < n && low.[j] = ' ' then spaces (j + 1) else j in
      let j = spaces j in
      if j < n && low.[j] = '=' then Some (j + 1) else None

let contains_script html =
  let low = String.lowercase_ascii html in
  let n = String.length low in
  (* [in_tag] tracks whether the scanner sits between '<' and '>':
     event-handler attributes only matter there — "ongoing = fine" in
     body text is not executable. *)
  let rec scan i in_tag =
    if i >= n then false
    else if lowercase_at low i "<script" then true
    else if lowercase_at low i "javascript:" then true
    else if in_tag && handler_at low i <> None then true
    else
      let in_tag =
        match low.[i] with '<' -> true | '>' -> false | _ -> in_tag
      in
      scan (i + 1) in_tag
  in
  scan 0 false

let rec strip_scripts html =
  let low = String.lowercase_ascii html in
  let n = String.length low in
  let buf = Buffer.create n in
  (* Skip an attribute value starting right after '=': a quoted string
     or an unquoted token. *)
  let skip_value i =
    let rec spaces i = if i < n && low.[i] = ' ' then spaces (i + 1) else i in
    let i = spaces i in
    if i >= n then i
    else if low.[i] = '"' || low.[i] = '\'' then begin
      let quote = low.[i] in
      let rec find j =
        if j >= n then n else if low.[j] = quote then j + 1 else find (j + 1)
      in
      find (i + 1)
    end
    else
      let rec token j =
        if j < n && low.[j] <> ' ' && low.[j] <> '>' then token (j + 1) else j
      in
      token i
  in
  let rec go i in_tag =
    if i >= n then ()
    else if lowercase_at low i "<script" then begin
      (* Drop through the matching close tag, or everything if
         unterminated. *)
      let rec find j =
        if j >= n then n
        else if lowercase_at low j "</script>" then j + 9
        else find (j + 1)
      in
      go (find (i + 7)) false
    end
    else if lowercase_at low i "javascript:" then
      go (i + String.length "javascript:") in_tag
    else
      match if in_tag then handler_at low i else None with
      | Some after_eq -> go (skip_value after_eq) in_tag
      | None ->
          Buffer.add_char buf html.[i];
          let in_tag =
            match low.[i] with '<' -> true | '>' -> false | _ -> in_tag
          in
          go (i + 1) in_tag
  in
  go 0 false;
  let out = Buffer.contents buf in
  (* Stripping can juxtapose fragments into new matches (e.g.
     "<scr<script>ipt" collapsing); iterate to a fixed point. *)
  if contains_script out then
    if String.length out < String.length html then strip_scripts out else ""
  else out

type t = (string * string) list

let empty = []
let of_fields fields = fields
let fields r = r
let get r key = List.assoc_opt key r
let get_or r key ~default = Option.value (get r key) ~default

let set r key value =
  let rec replace = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when k = key -> (key, value) :: rest
    | binding :: rest -> binding :: replace rest
  in
  replace r

let remove r key = List.filter (fun (k, _) -> k <> key) r
let mem r key = List.mem_assoc key r
let keys r = List.map fst r
let cardinal = List.length
let equal = ( = )
let get_int r key = Option.bind (get r key) int_of_string_opt
let set_int r key v = set r key (string_of_int v)

let get_list r key =
  match get r key with
  | None | Some "" -> []
  | Some s -> String.split_on_char ',' s

let set_list r key vs = set r key (String.concat "," vs)

(* Percent-escape the three characters that would break the
   line-oriented encoding. The clean runs between them are copied in
   bulk, and a string with none of them comes back itself, uncopied. *)
let escape s =
  let n = String.length s in
  let rec next_escaped i =
    if i = n then n
    else
      match String.unsafe_get s i with
      | '%' | '=' | '\n' -> i
      | _ -> next_escaped (i + 1)
  in
  let first = next_escaped 0 in
  if first = n then s
  else begin
    let buf = Buffer.create (n + 16) in
    let rec go start stop =
      Buffer.add_substring buf s start (stop - start);
      if stop < n then begin
        Buffer.add_string buf
          (match String.unsafe_get s stop with
          | '%' -> "%25"
          | '=' -> "%3d"
          | _ -> "%0a");
        go (stop + 1) (next_escaped (stop + 1))
      end
    in
    go 0 first;
    Buffer.contents buf
  end

(* The first [c] in [s] from [i] on, or [j] if there is none before
   [j]. Every scan in [decode] is bounded by its line or field, so no
   byte of a record is looked at more than a few times. *)
let rec index_in s c i j =
  if i >= j || String.unsafe_get s i = c then i else index_in s c (i + 1) j

(* The inverse of [escape] on the range [i, j) of [s], whose first '%'
   is at [pct]: the clean runs between escapes are copied in bulk. *)
let unescape s i j pct =
  let buf = Buffer.create (j - i) in
  let rec go start pct =
    Buffer.add_substring buf s start (pct - start);
    if pct + 2 >= j then Error "truncated escape"
    else
      let decoded =
        match (s.[pct + 1], s.[pct + 2]) with
        | '2', '5' -> Some '%'
        | '3', 'd' -> Some '='
        | '0', 'a' -> Some '\n'
        | _ -> None
      in
      match decoded with
      | None -> Error ("unknown escape %" ^ String.sub s (pct + 1) 2)
      | Some c ->
          Buffer.add_char buf c;
          let start = pct + 3 in
          let pct = index_in s '%' start j in
          if pct < j then go start pct
          else begin
            Buffer.add_substring buf s start (j - start);
            Ok (Buffer.contents buf)
          end
  in
  go i pct

let encode r =
  String.concat "\n"
    (List.map (fun (k, v) -> escape k ^ "=" ^ escape v) r)

(* Decode straight from ranges of the input: each key and value is
   copied once, and unescaped only if its range holds a '%'. *)
let decode s =
  let n = String.length s in
  let field i j =
    let pct = index_in s '%' i j in
    if pct = j then Ok (String.sub s i (j - i)) else unescape s i j pct
  in
  let rec go acc start =
    let stop = index_in s '\n' start n in
    let eq = index_in s '=' start stop in
    if eq = stop then
      Error ("missing '=' in line: " ^ String.sub s start (stop - start))
    else
      match (field start eq, field (eq + 1) stop) with
      | Ok k, Ok v ->
          let acc = (k, v) :: acc in
          if stop = n then Ok (List.rev acc) else go acc (stop + 1)
      | Error e, _ | _, Error e -> Error e
  in
  if n = 0 then Ok [] else go [] 0

let pp fmt r =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s=%S" k v))
    r

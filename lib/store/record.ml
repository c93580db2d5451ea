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

(* The inverse of [escape], with the same bulk copies: a string with
   no '%' comes back itself. *)
let unescape s =
  match String.index_opt s '%' with
  | None -> Ok s
  | Some first ->
      let n = String.length s in
      let buf = Buffer.create n in
      let rec go start pct =
        Buffer.add_substring buf s start (pct - start);
        if pct + 2 >= n then Error "truncated escape"
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
          | Some c -> (
              Buffer.add_char buf c;
              let start = pct + 3 in
              match String.index_from_opt s start '%' with
              | Some pct -> go start pct
              | None ->
                  Buffer.add_substring buf s start (n - start);
                  Ok (Buffer.contents buf))
      in
      go 0 first

let encode r =
  String.concat "\n"
    (List.map (fun (k, v) -> escape k ^ "=" ^ escape v) r)

let decode s =
  if s = "" then Ok []
  else
    let lines = String.split_on_char '\n' s in
    let decode_line line =
      match String.index_opt line '=' with
      | None -> Error ("missing '=' in line: " ^ line)
      | Some i -> (
          let k = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match (unescape k, unescape v) with
          | Ok k, Ok v -> Ok (k, v)
          | Error e, _ | _, Error e -> Error e)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match decode_line line with
          | Ok binding -> go (binding :: acc) rest
          | Error _ as e -> e)
    in
    go [] lines

let pp fmt r =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s=%S" k v))
    r

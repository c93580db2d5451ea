(* Reference record codec for differential tests of [W5_store.Record]:
   the byte-by-byte encoder and decoder the library used before it
   copied clean runs in bulk. Slow on purpose; its value is that it is
   obviously what it says. A record is its field list. *)

(* Percent-escape the three characters that would break the
   line-oriented encoding. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '=' -> Buffer.add_string buf "%3d"
      | '\n' -> Buffer.add_string buf "%0a"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then Error "truncated escape"
      else
        match String.sub s (i + 1) 2 with
        | "25" ->
            Buffer.add_char buf '%';
            go (i + 3)
        | "3d" ->
            Buffer.add_char buf '=';
            go (i + 3)
        | "0a" ->
            Buffer.add_char buf '\n';
            go (i + 3)
        | esc -> Error ("unknown escape %" ^ esc)
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

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

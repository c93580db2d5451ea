(* Graphviz DOT construction shared by W5_os.Explain, Trace_merge and
   W5_analysis.Static. Everything here is plain string assembly; the
   only subtlety is escaping, which must agree between node labels and
   edge labels so the renderers stay diffable. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ident s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    s

(* Values that are plain DOT identifiers stay unquoted (keeps the
   output eyeballable and greppable: [color=red], [shape=box]). *)
let plain v =
  v <> ""
  && (match v.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       v

let attrs_to_string attrs =
  String.concat ","
    (List.map
       (fun (k, v) ->
         if plain v then Printf.sprintf "%s=%s" k v
         else Printf.sprintf "%s=\"%s\"" k (escape v))
       attrs)

let node ?(attrs = []) id ~label =
  Printf.sprintf "  %s [%s];" id
    (attrs_to_string (("label", label) :: attrs))

let edge ?(attrs = []) src dst =
  match attrs with
  | [] -> Printf.sprintf "  %s -> %s;" src dst
  | attrs -> Printf.sprintf "  %s -> %s [%s];" src dst (attrs_to_string attrs)

let digraph ?(rankdir = "LR") name lines =
  String.concat "\n"
    ((Printf.sprintf "digraph %s {" (ident name))
     :: Printf.sprintf "  rankdir=%s;" rankdir
     :: lines)
  ^ "\n}\n"

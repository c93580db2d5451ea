module S = Set.Make (Tag)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let singleton = S.singleton
let of_list = S.of_list
let to_list = S.elements
let add = S.add
let remove = S.remove
let mem = S.mem
let inter = S.inter
let diff = S.diff

(* The [==] tests answer a label against itself without walking it. *)
let union a b = if a == b then a else S.union a b
let subset a b = a == b || S.subset a b
let equal a b = a == b || S.equal a b
let compare = S.compare
let cardinal = S.cardinal
let fold = S.fold
let iter = S.iter
let exists = S.exists
let for_all = S.for_all
let filter = S.filter
let choose_opt = S.choose_opt

let pp fmt l =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Tag.pp)
    (S.elements l)

let to_string l = Format.asprintf "%a" pp l

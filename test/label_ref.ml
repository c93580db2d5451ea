(* Reference label algebra for differential tests of [W5_difc.Label]
   and [W5_difc.Flow]: a label is a strictly increasing list of tag
   ids, and each operation is the textbook walk over such lists. Slow
   on purpose; its value is that it is obviously what it says. *)

open W5_difc

type t = int list

let of_label l =
  List.sort_uniq Int.compare (Label.fold (fun t acc -> Tag.id t :: acc) l [])

let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x < y then x :: union a' b
      else if y < x then y :: union a b'
      else x :: union a' b'

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
      if x < y then inter a' b
      else if y < x then inter a b'
      else x :: inter a' b'

let mem = List.mem
let diff a b = List.filter (fun x -> not (mem x b)) a
let subset a b = List.for_all (fun x -> mem x b) a
let cardinal = List.length
let equal = List.equal Int.equal

(* Lexicographic over the increasing ids, a proper prefix first. *)
let compare = List.compare Int.compare
let filter = List.filter

type labels = { secrecy : t; integrity : t }

let of_labels (l : Flow.labels) =
  { secrecy = of_label l.Flow.secrecy; integrity = of_label l.Flow.integrity }

let join a b =
  { secrecy = union a.secrecy b.secrecy; integrity = inter a.integrity b.integrity }

let can_flow src dst =
  subset src.secrecy dst.secrecy && subset dst.integrity src.integrity

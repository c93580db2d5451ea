type t = Critical | High | Warning | Info

let rank = function Critical -> 3 | High -> 2 | Warning -> 1 | Info -> 0

let name = function
  | Critical -> "critical"
  | High -> "high"
  | Warning -> "warning"
  | Info -> "info"

let all = [ Critical; High; Warning; Info ]
let max_sev a b = if rank a >= rank b then a else b

let worst sevs =
  List.fold_left
    (fun acc s ->
      match acc with None -> Some s | Some a -> Some (max_sev a s))
    None sevs

(* The one exit-code contract every judging CLI shares (`w5 vet`,
   `w5 health`, `w5 soak`): exit 1 stays reserved for tool errors, so
   findings start at 2. *)
let exit_code = function
  | None | Some Info -> 0
  | Some Warning -> 2
  | Some High -> 3
  | Some Critical -> 4

let of_health_severity = function
  | 0 -> None
  | 1 | 2 -> Some Warning
  | _ -> Some High

type action =
  | Drop
  | Delay of int
  | Duplicate
  | Crash_before_apply
  | Crash_after_apply

exception Crashed of string

let action_name = function
  | Drop -> "drop"
  | Delay _ -> "delay"
  | Duplicate -> "duplicate"
  | Crash_before_apply -> "crash_before_apply"
  | Crash_after_apply -> "crash_after_apply"

let pp_action fmt = function
  | Delay n -> Format.fprintf fmt "delay(%d)" n
  | a -> Format.pp_print_string fmt (action_name a)

type t = {
  mutable schedule : (int * action) list;  (* ascending injection steps *)
  mutable step : int;
  mutable fired : (int * string * action) list;  (* newest first *)
  descr : string;
}

let none () = { schedule = []; step = 0; fired = []; descr = "none" }

let scripted ?(label = "scripted") entries =
  let schedule = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  { schedule; step = 0; fired = []; descr = label }

(* A private LCG so plans are deterministic regardless of any use of
   Stdlib.Random elsewhere in the process. 30-bit state; plenty for
   schedule placement. *)
let make_rng seed =
  let state = ref (((abs seed * 2) + 1) land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 0 then 0 else !state mod bound

let of_seed ?(drops = 4) ?(delays = 2) ?(duplicates = 1) ?(crashes = 1) ~seed
    () =
  let rng = make_rng seed in
  let actions =
    List.concat
      [
        List.init (max 0 drops) (fun _ -> Drop);
        List.init (max 0 delays) (fun _ -> Delay (1 + rng 4));
        List.init (max 0 duplicates) (fun _ -> Duplicate);
        List.init (max 0 crashes) (fun _ ->
            if rng 2 = 0 then Crash_before_apply else Crash_after_apply);
      ]
  in
  let total = List.length actions in
  let horizon = max 8 (total * 5) in
  (* distinct injection steps, then a random pairing of steps to
     actions: both draws come from the seeded generator only *)
  let steps = Hashtbl.create total in
  let rec draw () =
    let s = rng horizon in
    if Hashtbl.mem steps s then draw ()
    else begin
      Hashtbl.add steps s ();
      s
    end
  in
  let placed = List.map (fun action -> (draw (), action)) actions in
  let schedule = List.sort (fun (a, _) (b, _) -> compare a b) placed in
  {
    schedule;
    step = 0;
    fired = [];
    descr =
      Printf.sprintf "seed=%d drops=%d delays=%d duplicates=%d crashes=%d"
        seed drops delays duplicates crashes;
  }

let consult t ~op ~file =
  let step = t.step in
  t.step <- step + 1;
  match t.schedule with
  | (s, action) :: rest when s <= step ->
      t.schedule <- rest;
      t.fired <- (step, op ^ ":" ^ file, action) :: t.fired;
      Some action
  | _ -> None

let one_shot t ~op ~file ~on_drop =
  let rec go attempt =
    match consult t ~op ~file with
    | None | Some (Delay _ | Duplicate) -> Ok ()
    | Some (Crash_before_apply | Crash_after_apply) -> Error `Crashed
    | Some Drop when attempt < 3 ->
        on_drop attempt;
        go (attempt + 1)
    | Some Drop -> Error `Lost
  in
  go 1

let pending t = List.length t.schedule
let exhausted t = t.schedule = []
let steps_taken t = t.step
let describe t = t.descr

let fired t = List.rev t.fired

let schedule t = t.schedule

let render_fired t =
  String.concat "\n"
    (List.map
       (fun (step, site, action) ->
         Format.asprintf "  step %-4d %-32s %a" step site pp_action action)
       (fired t))

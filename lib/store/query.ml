open W5_os

type id = string

(* Predicates are reified so the planner can look inside them; [eval]
   gives them back their old meaning as functions. *)
type predicate =
  | Always
  | Field_equals of string * string
  | Field_contains of string * string
  | Field_int_at_least of string * int
  | Has_field of string
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate
  | Custom of (Record.t -> bool)

let always = Always
let field_equals key value = Field_equals (key, value)
let field_contains key needle = Field_contains (key, needle)
let field_int_at_least key threshold = Field_int_at_least (key, threshold)
let has_field key = Has_field key
let ( &&& ) p q = And (p, q)
let ( ||| ) p q = Or (p, q)
let not_ p = Not p
let custom f = Custom f

let rec eval p r =
  match p with
  | Always -> true
  | Field_equals (key, value) -> Record.get r key = Some value
  | Field_contains (key, needle) -> (
      match Record.get r key with
      | None -> false
      | Some v -> W5_http.Substring.contains v needle)
  | Field_int_at_least (key, threshold) -> (
      match Record.get_int r key with
      | None -> false
      | Some n -> n >= threshold)
  | Has_field key -> Record.mem r key
  | And (p, q) -> eval p r && eval q r
  | Or (p, q) -> eval p r || eval q r
  | Not p -> not (eval p r)
  | Custom f -> f r

(* Indexable atoms of the conjunction spine. An atom only has to be
   {e necessary} for the predicate (candidates form a superset of the
   matches); disjunctions and negations offer no such atom. *)
let rec atoms_of = function
  | Field_equals (key, value) -> [ Index.Eq (key, value) ]
  | Field_int_at_least (key, threshold) -> [ Index.At_least (key, threshold) ]
  | And (p, q) -> atoms_of p @ atoms_of q
  | Always | Field_contains _ | Has_field _ | Or _ | Not _ | Custom _ -> []

(* Query telemetry records sizes only (rows scanned, rows returned):
   counts are shaped like label sizes, not like record contents. *)
let meter_scanned ctx n =
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter
       (Kernel.metrics ctx.Kernel.kernel)
       "w5_store_rows_scanned_total"
       ~help:"Rows visited by store queries")
    ~by:n

let meter_rows ctx n =
  W5_obs.Metrics.observe
    (W5_obs.Metrics.histogram
       (Kernel.metrics ctx.Kernel.kernel)
       "w5_store_query_rows"
       ~help:"Result-set sizes of store queries")
    n

(* The taint a query imposes must depend only on the collection's
   contents — never on which rows the planner chose to visit, or the
   taint itself becomes a channel about the skipped rows. Both the
   scanning and the indexed paths therefore absorb the collection-wide
   label summary (the exact join a full tainting scan would reach)
   before reading anything. Restricted tags deny here, identically in
   both paths. *)
let absorb_summary ctx ~collection =
  match Index.summary ctx.Kernel.kernel ~collection with
  | None -> Ok ()
  | Some labels -> Syscall.absorb_labels ctx labels

let select ?limit ?(use_index = true) ctx ~collection ~where =
  match Obj_store.list ctx ~collection with
  | Error _ as e -> e
  | Ok ids -> (
      match absorb_summary ctx ~collection with
      | Error _ as e -> e
      | Ok () -> (
          let kernel = ctx.Kernel.kernel in
          let candidates =
            if not use_index then ids
            else
              match atoms_of where with
              | [] ->
                  Index.meter_query_fallback kernel "predicate";
                  ids
              | atoms -> (
                  match Index.plan kernel ~collection atoms with
                  | Ok candidate_ids -> candidate_ids
                  | Error reason ->
                      Index.meter_query_fallback kernel reason;
                      ids)
          in
          (* Candidates are a hint, nothing more: every one is re-read
             through the syscall layer and re-checked against the full
             predicate. Visiting stops once [limit] rows match — safe
             now that the taint was settled above, independent of how
             far we get. *)
          let full = match limit with None -> max_int | Some n -> n in
          let rec visit acc found = function
            | [] -> Ok (List.rev acc)
            | _ when found >= full -> Ok (List.rev acc)
            | id :: rest -> (
                meter_scanned ctx 1;
                match
                  Syscall.read_file_taint ctx
                    (Obj_store.object_path collection id)
                with
                | Error e -> Error e
                | Ok data -> (
                    match Record.decode data with
                    | Error _ -> visit acc found rest
                    | Ok record ->
                        if eval where record then
                          visit ((id, record) :: acc) (found + 1) rest
                        else visit acc found rest))
          in
          match visit [] 0 candidates with
          | Error _ as e -> e
          | Ok results ->
              meter_rows ctx (List.length results);
              Ok results))

let select_leaky ctx ~collection ~where =
  match Obj_store.list ctx ~collection with
  | Error _ as e -> e
  | Ok ids ->
      let step acc id =
        match Syscall.read_file ctx (Obj_store.object_path collection id) with
        | Error _ -> acc (* unreadable rows silently vanish: the leak *)
        | Ok data -> (
            match Record.decode data with
            | Error _ -> acc
            | Ok record -> if eval where record then (id, record) :: acc else acc)
      in
      let results = List.rev (List.fold_left step [] ids) in
      meter_rows ctx (List.length results);
      Ok results

let count ctx ~collection ~where =
  Result.map List.length (select ctx ~collection ~where)

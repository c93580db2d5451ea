open W5_difc
open W5_os

type kind =
  | Equality
  | Int_order

type atom =
  | Eq of string * string
  | At_least of string * int

module Ord = Map.Make (struct
  type t = int * string

  let compare (a, i) (b, j) =
    match Int.compare a b with 0 -> String.compare i j | c -> c
end)

type entry = {
  fields : (string, kind) Hashtbl.t;
  eq : (string * string, string list) Hashtbl.t; (* (field, value) -> ids *)
  mutable ords : (string * string Ord.t) list; (* field -> (value,id) map *)
  (* The join of every child's labels, [None] for an empty collection.
     It covers *all* children, including undecodable rows and stray
     directories — everything a scan's taint would touch. *)
  mutable join : Flow.labels option;
  (* Candidate sets are only served when [indexable]: no stray
     directories, no on-disk names outside [sanitize]'s image. *)
  mutable indexable : bool;
  (* (fs generation, collection dir version) at last build; [None]
     forces a rebuild. Content writes bump the parent dir's version
     (see Fs), so every mutation under the collection, through
     Obj_store or not, lands here. *)
  mutable stamp : (int * int) option;
}

let registries = Kernel.Local.create (fun () -> Hashtbl.create 8)
let registry kernel = Kernel.Local.get registries kernel

let entry_of kernel collection =
  let reg = registry kernel in
  match Hashtbl.find_opt reg collection with
  | Some e -> e
  | None ->
      let e =
        {
          fields = Hashtbl.create 4;
          eq = Hashtbl.create 16;
          ords = [];
          join = None;
          indexable = true;
          stamp = None;
        }
      in
      Hashtbl.replace reg collection e;
      e

(* ---- metrics ----
   Sizes and outcomes only: candidate-set cardinalities and low-
   cardinality reason strings. Field names and values never appear —
   they are application data. *)

let m_counter kernel name ~help =
  W5_obs.Metrics.counter (Kernel.metrics kernel) name ~help

let meter_rebuild kernel =
  W5_obs.Metrics.inc
    (m_counter kernel "w5_store_index_rebuilds_total"
       ~help:"Secondary-index rebuilds from the filesystem")

let meter_hit kernel =
  W5_obs.Metrics.inc
    (m_counter kernel "w5_store_index_hits_total"
       ~help:"Queries answered from a secondary index")

let meter_fallback kernel reason =
  W5_obs.Metrics.inc
    (m_counter kernel "w5_store_index_fallbacks_total"
       ~help:"Queries that fell back to a full scan, by reason")
    ~labels:[ ("reason", reason) ]

let meter_candidates kernel n =
  W5_obs.Metrics.observe
    (W5_obs.Metrics.histogram (Kernel.metrics kernel)
       "w5_store_index_candidates"
       ~help:"Candidate-set sizes served by the secondary index")
    n

(* ---- postings ---- *)

let ord_of e field =
  match List.assoc_opt field e.ords with Some m -> m | None -> Ord.empty

let set_ord e field m =
  e.ords <- (field, m) :: List.remove_assoc field e.ords

(* Post [id] under declared [field] if [record] carries a value of
   [field]'s kind. *)
let add_posting e id record field = function
  | Equality -> (
      match Record.get record field with
      | None -> ()
      | Some v ->
          let key = (field, v) in
          let ids = Option.value ~default:[] (Hashtbl.find_opt e.eq key) in
          Hashtbl.replace e.eq key (id :: ids))
  | Int_order -> (
      match Record.get_int record field with
      | None -> ()
      | Some n -> set_ord e field (Ord.add (n, id) id (ord_of e field)))

(* ---- validity and rebuild ----

   All reads here go straight to Fs: index maintenance is store-
   internal bookkeeping, not an access by the querying process. What
   keeps this safe is that nothing read here ever reaches a caller
   except (a) the label summary, which is *absorbed into* the caller's
   label before any row is served, and (b) candidate ids, which are
   only ever re-read through Syscall with full checks. See DESIGN.md. *)

let current_stamp kernel collection =
  let fs = Kernel.fs kernel in
  match Fs.stat fs (Store_path.collection_path collection) with
  | Ok st when st.Fs.kind = Fs.Directory ->
      Some (Fs.generation fs, st.Fs.version)
  | Ok _ | Error _ -> None

let is_valid kernel collection e =
  match e.stamp with
  | None -> false
  | Some s -> current_stamp kernel collection = Some s

let rebuild kernel collection e =
  meter_rebuild kernel;
  Hashtbl.reset e.eq;
  e.ords <- [];
  e.join <- None;
  e.indexable <- true;
  e.stamp <- None;
  let fs = Kernel.fs kernel in
  let dir = Store_path.collection_path collection in
  let stamp = current_stamp kernel collection in
  let absorb labels =
    e.join <-
      Some (match e.join with None -> labels | Some j -> Flow.join j labels)
  in
  match (stamp, Fs.readdir fs dir) with
  | None, _ | _, Error _ -> ()
  | Some stamp, Ok (names, _) ->
      List.iter
        (fun name ->
          let path = dir ^ "/" ^ name in
          match Fs.read fs path with
          | Error _ ->
              (* a stray sub-directory: a scan aborts on it, so
                 candidate sets must not skip past it *)
              e.indexable <- false;
              (match Fs.stat fs path with
              | Ok st -> absorb st.Fs.labels
              | Error _ -> ())
          | Ok (data, labels) -> (
              if not (Store_path.round_trips name) then e.indexable <- false;
              absorb labels;
              match Record.decode data with
              | Error _ -> () (* scans skip undecodable rows too *)
              | Ok record ->
                  let id = Store_path.unsanitize name in
                  Hashtbl.iter (add_posting e id record) e.fields))
        names;
      e.stamp <- Some stamp

let validate kernel collection =
  let e = entry_of kernel collection in
  if not (is_valid kernel collection e) then rebuild kernel collection e;
  e

(* ---- public API ---- *)

let declare ctx ~collection ~field kind =
  let kernel = ctx.Kernel.kernel in
  let e = entry_of kernel collection in
  (match Hashtbl.find_opt e.fields field with
  | Some k when k = kind -> ()
  | _ ->
      Hashtbl.replace e.fields field kind;
      (* postings for the new field appear at the next rebuild *)
      e.stamp <- None);
  ()

let summary kernel ~collection =
  match (validate kernel collection).join with
  | None -> None
  | Some { Flow.secrecy; integrity } ->
      (* The lookup path's taint (root, /store, the collection dir) is
         re-read fresh: ancestor labels can change without touching the
         collection dir's version, so it must not be cached. *)
      let fs = Kernel.fs kernel in
      let path_secrecy =
        match
          Fs.path_taint fs (Store_path.collection_path collection ^ "/x")
        with
        | Ok taint -> taint.Flow.secrecy
        | Error _ -> Label.empty
      in
      Some
        (Flow.make ~secrecy:(Label.union secrecy path_secrecy) ~integrity ())

let candidates_of e = function
  | Eq (f, v) -> (
      match Hashtbl.find_opt e.fields f with
      | Some Equality ->
          let ids = Option.value ~default:[] (Hashtbl.find_opt e.eq (f, v)) in
          Some (List.sort String.compare ids)
      | Some Int_order | None -> None)
  | At_least (f, n) -> (
      match Hashtbl.find_opt e.fields f with
      | Some Int_order ->
          let ids =
            Ord.fold
              (fun (v, _) id acc -> if v >= n then id :: acc else acc)
              (ord_of e f) []
          in
          Some (List.sort_uniq String.compare ids)
      | Some Equality | None -> None)

let plan kernel ~collection atoms =
  let e = validate kernel collection in
  if not e.indexable then Error "unindexable"
  else
    let rec first = function
      | [] -> Error "undeclared"
      | atom :: rest -> (
          match candidates_of e atom with
          | Some ids -> Ok ids
          | None -> first rest)
    in
    match first atoms with
    | Error _ as err -> err
    | Ok ids ->
        meter_hit kernel;
        meter_candidates kernel (List.length ids);
        Ok ids

let meter_query_fallback = meter_fallback

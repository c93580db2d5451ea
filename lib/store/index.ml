open W5_difc
open W5_os

type kind =
  | Equality
  | Int_order

type atom =
  | Eq of string * string
  | At_least of string * int

(* Postings attributed to one document, remembered so an overwrite or
   delete can retract exactly what it contributed. *)
type posting =
  | P_eq of string * string
  | P_ord of string * int

module Ord = Map.Make (struct
  type t = int * string

  let compare (a, i) (b, j) =
    match Int.compare a b with 0 -> String.compare i j | c -> c
end)

type doc = {
  d_postings : posting list;
  d_labels : Flow.labels;
}

type entry = {
  fields : (string, kind) Hashtbl.t;
  eq : (string * string, (string, unit) Hashtbl.t) Hashtbl.t;
  mutable ords : (string * string Ord.t) list; (* field -> (value,id) map *)
  docs : (string, doc) Hashtbl.t;
  (* Label summary of the whole collection, maintained as refcounts:
     secrecy = tags with count > 0; integrity = tags present in every
     row (count = row_count). Counts cover *all* children, including
     undecodable rows and stray directories — everything a scan's
     taint would touch. *)
  secrecy_refs : (Tag.t, int) Hashtbl.t;
  integrity_refs : (Tag.t, int) Hashtbl.t;
  mutable row_count : int;
  (* The (secrecy fold, integrity fold) of the refcount tables;
     recomputed lazily after any refcount change. The lookup
     path's taint is *not* part of this — it must stay fresh (see
     [summary]). *)
  mutable summary_cache : (Label.t * Label.t) option;
  (* Candidate sets are only served when [indexable]: no stray
     directories, no on-disk names outside [sanitize]'s image. *)
  mutable indexable : bool;
  (* (fs generation, collection dir version) at last (re)build; [None]
     forces a rebuild. Content writes bump the parent dir's version
     (see Fs), so any mutation under the collection — even one that
     bypasses Obj_store — lands here. *)
  mutable stamp : (int * int) option;
}

(* Per-kernel registries, keyed by Kernel.id so two providers (e.g.
   the federation tests' A and B) never share index state. *)
let registries : (int, (string, entry) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let registry kernel =
  let kid = Kernel.id kernel in
  match Hashtbl.find_opt registries kid with
  | Some r -> r
  | None ->
      let r = Hashtbl.create 8 in
      Hashtbl.replace registries kid r;
      r

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
          docs = Hashtbl.create 16;
          secrecy_refs = Hashtbl.create 8;
          integrity_refs = Hashtbl.create 8;
          row_count = 0;
          summary_cache = None;
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

(* ---- label summary refcounts ---- *)

let refs_add tbl label =
  Label.iter
    (fun t ->
      Hashtbl.replace tbl t
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl t)))
    label

let refs_remove tbl label =
  Label.iter
    (fun t ->
      match Hashtbl.find_opt tbl t with
      | None -> ()
      | Some 1 -> Hashtbl.remove tbl t
      | Some n -> Hashtbl.replace tbl t (n - 1))
    label

let count_labels e (labels : Flow.labels) =
  refs_add e.secrecy_refs labels.Flow.secrecy;
  refs_add e.integrity_refs labels.Flow.integrity;
  e.row_count <- e.row_count + 1;
  e.summary_cache <- None

let discount_labels e (labels : Flow.labels) =
  refs_remove e.secrecy_refs labels.Flow.secrecy;
  refs_remove e.integrity_refs labels.Flow.integrity;
  e.row_count <- e.row_count - 1;
  e.summary_cache <- None

(* ---- postings maintenance ---- *)

let ord_of e field =
  match List.assoc_opt field e.ords with Some m -> m | None -> Ord.empty

let set_ord e field m =
  e.ords <- (field, m) :: List.remove_assoc field e.ords

let add_posting e id = function
  | P_eq (f, v) ->
      let ids =
        match Hashtbl.find_opt e.eq (f, v) with
        | Some ids -> ids
        | None ->
            let ids = Hashtbl.create 4 in
            Hashtbl.replace e.eq (f, v) ids;
            ids
      in
      Hashtbl.replace ids id ()
  | P_ord (f, n) -> set_ord e f (Ord.add (n, id) id (ord_of e f))

let remove_posting e id = function
  | P_eq (f, v) -> (
      match Hashtbl.find_opt e.eq (f, v) with
      | None -> ()
      | Some ids ->
          Hashtbl.remove ids id;
          if Hashtbl.length ids = 0 then Hashtbl.remove e.eq (f, v))
  | P_ord (f, n) -> set_ord e f (Ord.remove (n, id) (ord_of e f))

let postings_of e record =
  Hashtbl.fold
    (fun field kind acc ->
      match kind with
      | Equality -> (
          match Record.get record field with
          | None -> acc
          | Some v -> P_eq (field, v) :: acc)
      | Int_order -> (
          match Record.get_int record field with
          | None -> acc
          | Some n -> P_ord (field, n) :: acc))
    e.fields []

let retract_doc e id =
  match Hashtbl.find_opt e.docs id with
  | None -> ()
  | Some doc ->
      List.iter (remove_posting e id) doc.d_postings;
      discount_labels e doc.d_labels;
      Hashtbl.remove e.docs id

let insert_doc e id ~postings ~labels =
  List.iter (add_posting e id) postings;
  count_labels e labels;
  Hashtbl.replace e.docs id { d_postings = postings; d_labels = labels }

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
  Hashtbl.reset e.docs;
  Hashtbl.reset e.secrecy_refs;
  Hashtbl.reset e.integrity_refs;
  e.row_count <- 0;
  e.summary_cache <- None;
  e.indexable <- true;
  e.stamp <- None;
  let fs = Kernel.fs kernel in
  let dir = Store_path.collection_path collection in
  let stamp = current_stamp kernel collection in
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
              | Ok st -> count_labels e st.Fs.labels
              | Error _ -> ())
          | Ok (data, labels) ->
              if not (Store_path.round_trips name) then e.indexable <- false;
              let id = Store_path.unsanitize name in
              let postings =
                match Record.decode data with
                | Error _ -> [] (* scans skip undecodable rows too *)
                | Ok record -> postings_of e record
              in
              insert_doc e id ~postings ~labels)
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
  let e = validate kernel collection in
  if e.row_count = 0 then None
  else
    let secrecy, integrity =
      match e.summary_cache with
      | Some folds -> folds
      | None ->
          let secrecy =
            Hashtbl.fold
              (fun t _ acc -> Label.add t acc)
              e.secrecy_refs Label.empty
          in
          let integrity =
            Hashtbl.fold
              (fun t n acc -> if n = e.row_count then Label.add t acc else acc)
              e.integrity_refs Label.empty
          in
          e.summary_cache <- Some (secrecy, integrity);
          (secrecy, integrity)
    in
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
    Some (Flow.make ~secrecy:(Label.union secrecy path_secrecy) ~integrity ())

let candidates_of e = function
  | Eq (f, v) -> (
      match Hashtbl.find_opt e.fields f with
      | Some Equality ->
          let ids =
            match Hashtbl.find_opt e.eq (f, v) with
            | None -> []
            | Some tbl -> Hashtbl.fold (fun id () acc -> id :: acc) tbl []
          in
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

(* ---- mutation hooks (called by Obj_store) ---- *)

let before_mutate kernel ~collection =
  let reg = registry kernel in
  match Hashtbl.find_opt reg collection with
  | None -> false
  | Some e -> is_valid kernel collection e

let restamp kernel collection e =
  e.stamp <- current_stamp kernel collection

let note_put kernel ~fresh ~collection ~id =
  match Hashtbl.find_opt (registry kernel) collection with
  | None -> ()
  | Some e ->
      if fresh then begin
        retract_doc e id;
        let fs = Kernel.fs kernel in
        (match Fs.read fs (Store_path.object_path collection id) with
        | Error _ -> e.stamp <- None
        | Ok (data, labels) ->
            let postings =
              match Record.decode data with
              | Error _ -> []
              | Ok record -> postings_of e record
            in
            insert_doc e id ~postings ~labels;
            restamp kernel collection e)
      end
      else e.stamp <- None

let note_delete kernel ~fresh ~collection ~id =
  match Hashtbl.find_opt (registry kernel) collection with
  | None -> ()
  | Some e ->
      if fresh then begin
        retract_doc e id;
        restamp kernel collection e
      end
      else e.stamp <- None

let note_external_write kernel ~path =
  let prefix = Store_path.root ^ "/" in
  let plen = String.length prefix in
  if String.length path > plen && String.sub path 0 plen = prefix then begin
    let rest = String.sub path plen (String.length path - plen) in
    let dir =
      match String.index_opt rest '/' with
      | None -> rest
      | Some i -> String.sub rest 0 i
    in
    let collection = Store_path.unsanitize dir in
    match Hashtbl.find_opt (registry kernel) collection with
    | None -> ()
    | Some e -> e.stamp <- None
  end

open W5_difc
open W5_os

type id = string

let root = Store_path.root

let init ctx =
  match Syscall.mkdir ctx root ~labels:Flow.bottom with
  | Ok () -> Ok ()
  | Error (Os_error.Already_exists _) -> Ok ()
  | Error _ as e -> e

(* Store-level op counts ride the owning kernel's registry. Only the
   op name is recorded — never collection or object ids, which are
   application-chosen strings. *)
let meter ctx op =
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter
       (Kernel.metrics ctx.Kernel.kernel)
       "w5_store_ops_total"
       ~help:"Object store operations by kind")
    ~labels:[ ("op", op) ]

let collection_path = Store_path.collection_path
let object_path = Store_path.object_path

let create_collection ctx collection ~labels =
  match Syscall.mkdir ctx (collection_path collection) ~labels with
  | Ok () -> Ok ()
  | Error (Os_error.Already_exists _) -> Ok ()
  | Error _ as e -> e

let put ctx ~collection ~id ~labels record =
  meter ctx "put";
  let path = object_path collection id in
  let data = Record.encode record in
  if Syscall.file_exists ctx path then Syscall.write_file ctx path ~data
  else Syscall.create_file ctx path ~labels ~data

let get ctx ?(taint = false) ~collection ~id () =
  meter ctx "get";
  let path = object_path collection id in
  let read = if taint then Syscall.read_file_taint else Syscall.read_file in
  match read ctx path with
  | Error _ as e -> e
  | Ok data ->
      Result.map_error (fun msg -> Os_error.Invalid msg) (Record.decode data)

let delete ctx ~collection ~id =
  meter ctx "delete";
  Syscall.unlink ctx (object_path collection id)

let list ctx ~collection =
  meter ctx "list";
  (* readdir yields on-disk (escaped) names; callers work in logical
     ids, which [object_path] re-escapes on the way back down. *)
  Result.map
    (fun names ->
      List.sort String.compare (List.map Store_path.unsanitize names))
    (Syscall.readdir ctx (collection_path collection))

let exists ctx ~collection ~id =
  meter ctx "exists";
  Syscall.file_exists ctx (object_path collection id)

let labels_of ctx ~collection ~id =
  Result.map
    (fun st -> st.Fs.labels)
    (Syscall.stat ctx (object_path collection id))

let version_of ctx ~collection ~id =
  Result.map
    (fun st -> st.Fs.version)
    (Syscall.stat ctx (object_path collection id))

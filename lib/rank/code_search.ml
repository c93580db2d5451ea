open W5_platform

type result = {
  app_id : string;
  total : float;
  pagerank : float;
  popularity : float;
  editorial : float;
  auditable : bool;
  flagged_by : string list;
}

let graph_of_registry registry =
  let graph =
    Depgraph.union
      (Depgraph.of_edges (App_registry.import_edges registry))
      (Depgraph.of_edges (App_registry.embed_edges registry))
  in
  List.iter (Depgraph.add_node graph) (App_registry.list_ids registry);
  graph

let score_all ?(editors = []) registry =
  let ranks = Pagerank.compute (graph_of_registry registry) in
  let results =
    List.map
      (fun app_id ->
        let pagerank = Pagerank.score_of ranks app_id in
        let popularity =
          log (1.0 +. float_of_int (App_registry.installs registry app_id))
        in
        let editorial =
          List.fold_left
            (fun acc editor ->
              let weight = Editor.reputation editor in
              let acc =
                if Editor.endorsed editor ~app:app_id then acc +. weight
                else acc
              in
              if Editor.flagged editor ~app:app_id then acc -. (2.0 *. weight)
              else acc)
            0.0 editors
        in
        let auditable =
          App_registry.source_of registry ~id:app_id () <> None
        in
        let flagged_by =
          List.filter_map
            (fun editor ->
              if Editor.flagged editor ~app:app_id then
                Some (Editor.name editor)
              else None)
            editors
        in
        let total =
          (10.0 *. pagerank) +. (0.5 *. popularity) +. editorial
          +. (if auditable then 0.1 else 0.0)
        in
        { app_id; total; pagerank; popularity; editorial; auditable; flagged_by })
      (App_registry.list_ids registry)
  in
  List.sort
    (fun a b ->
      match Float.compare b.total a.total with
      | 0 -> String.compare a.app_id b.app_id
      | c -> c)
    results

let search ?editors registry ~query =
  List.filter
    (fun r -> Option.is_some (W5_http.Substring.find_ci r.app_id query))
    (score_all ?editors registry)

let publish_search_app platform ~dev ?(editors = []) () =
  let registry = Platform.registry platform in
  let handler ctx (env : App_registry.env) =
    let query =
      W5_http.Request.param_or env.App_registry.request "q" ~default:""
    in
    let results = search ~editors registry ~query in
    let rows =
      List.map
        (fun r ->
          Printf.sprintf "%s (score %.4f)%s%s" r.app_id r.total
            (if r.auditable then " [auditable]" else "")
            (match r.flagged_by with
            | [] -> ""
            | names -> " FLAGGED by " ^ String.concat ", " names))
        results
    in
    let body =
      W5_http.Html.element "h1"
        (W5_http.Html.text ("code search: " ^ if query = "" then "(all)" else query))
      ^ W5_http.Html.ul (List.map W5_http.Html.text rows)
    in
    ignore (W5_os.Syscall.respond ctx (W5_http.Html.page ~title:"code search" body))
  in
  App_registry.publish registry ~dev ~name:"search" ~version:"1.0"
    ~source:
      (App_registry.Open_source
         "code_search.ml: ranks the live registry; reads no user data")
    handler

let vet_platform ~editors platform =
  let registry = Platform.registry platform in
  let vetted =
    List.filter
      (fun app_id ->
        List.exists (fun e -> Editor.endorsed e ~app:app_id) editors
        && not (List.exists (fun e -> Editor.flagged e ~app:app_id) editors))
      (App_registry.list_ids registry)
  in
  Platform.set_vetted platform vetted;
  List.length vetted

let rank_of results app_id =
  let rec find i = function
    | [] -> None
    | r :: _ when r.app_id = app_id -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 1 results

(* Reference provenance for differential tests of [W5_os.Explain]: the
   graph the library once copied the log into, with its recursive
   backward walk. The retained log becomes per-node lists of incoming
   edges, and a walk re-enters a node whenever it reaches it with a
   later horizon. Slow on purpose; its value is that it is obviously
   what it says. The library's copy also had a node budget and a step
   budget; this one keeps neither, but it counts the nodes it holds and
   the most steps one walk took, so a property can check that neither
   budget (4,096 nodes, 10,000 steps) would have bound. *)

open W5_os

type t = {
  incoming : (Explain.node, Explain.edge list) Hashtbl.t;  (* newest first *)
  nodes : (Explain.node, unit) Hashtbl.t;
  mutable max_steps : int;
}

let of_log log =
  let g =
    { incoming = Hashtbl.create 64; nodes = Hashtbl.create 64; max_steps = 0 }
  in
  Audit.iter log ~f:(fun entry ->
      match Explain.edge_of_entry entry with
      | None -> ()
      | Some e ->
          Hashtbl.replace g.nodes e.Explain.src ();
          Hashtbl.replace g.nodes e.Explain.dst ();
          let prior =
            Option.value (Hashtbl.find_opt g.incoming e.Explain.dst) ~default:[]
          in
          Hashtbl.replace g.incoming e.Explain.dst (e :: prior));
  g

let node_count g = Hashtbl.length g.nodes
let max_steps g = g.max_steps

(* Edges into [node], oldest first. *)
let incoming g node =
  List.rev (Option.value (Hashtbl.find_opt g.incoming node) ~default:[])

let carries_any (e : Explain.edge) tags =
  match tags with
  | [] -> true
  | _ -> List.exists (fun tag -> List.mem tag e.Explain.tags) tags

let by_seq (a : Explain.edge) (b : Explain.edge) =
  compare a.Explain.seq b.Explain.seq

(* From [node], follow incoming edges older than [before] that carry
   one of [tags], and recurse into each edge's source with that edge's
   seq as the new horizon. A node is walked again only with a later
   horizon than any it was walked with. *)
let causes g ?(tags = []) ~before node =
  let steps = ref 0 in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec walk node before =
    let prior =
      match Hashtbl.find_opt seen node with Some p -> p | None -> min_int
    in
    if before > prior then begin
      Hashtbl.replace seen node before;
      List.iter
        (fun (e : Explain.edge) ->
          if e.Explain.seq < before && carries_any e tags then begin
            incr steps;
            if not (List.memq e !acc) then acc := e :: !acc;
            walk e.Explain.src e.Explain.seq
          end)
        (incoming g node)
    end
  in
  walk node before;
  g.max_steps <- max g.max_steps !steps;
  List.sort_uniq by_seq !acc

let explain g (edge : Explain.edge) =
  causes g ~tags:edge.Explain.tags ~before:edge.Explain.seq edge.Explain.src
  @ [ edge ]

(* Direct arrivals of [tag] at [node], plus how the tag reached the
   sources of those arrivals. *)
let tag_history g node ~tag =
  let direct =
    List.filter (fun (e : Explain.edge) -> List.mem tag e.Explain.tags)
      (incoming g node)
  in
  let upstream =
    List.concat_map
      (fun (e : Explain.edge) ->
        causes g ~tags:[ tag ] ~before:e.Explain.seq e.Explain.src)
      direct
  in
  List.sort_uniq by_seq (direct @ upstream)

(* A file's tags are those of its most recent labeling edge. *)
let file_provenance g ~path =
  let node = Explain.Object path in
  let labeling =
    List.filter
      (fun (e : Explain.edge) ->
        match e.Explain.kind with
        | "fs.create" | "fs.mkdir" | "fs.relabel" -> true
        | _ -> false)
      (incoming g node)
  in
  let tags =
    match List.rev labeling with [] -> [] | last :: _ -> last.Explain.tags
  in
  List.map
    (fun tag -> (tag, tag_history g node ~tag))
    (List.sort_uniq String.compare tags)

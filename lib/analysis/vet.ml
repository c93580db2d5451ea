open W5_difc
open W5_os
open W5_obs

(* severities and the exit-code contract live in Severity, shared with
   `w5 health` and the soak CLI *)
type severity = Severity.t = Critical | High | Warning | Info

type finding =
  | Enforcement_off
  | Unguarded_export of { tag : string; holder : string }
  | Broken_rule of { tag : string; gate : string; missing : bool }
  | Foreign_gate of { tag : string; gate : string; gate_owner : string }
  | No_rule of { tag : string }
  | Overbroad_gate of { gate : string; extra : string list }
  | Dead_gate of { gate : string }
  | Closed_cycle of { cycle_members : string list }
  | Dangling_edge of { app : string; edge : string; target : string }

let severity_of = function
  | Enforcement_off | Unguarded_export _ -> Critical
  | Broken_rule _ | Foreign_gate _ -> High
  | No_rule _ | Overbroad_gate _ | Closed_cycle _ -> Warning
  | Dead_gate _ | Dangling_edge _ -> Info

(* report-local rank: 0 = worst, for sorting findings worst-first *)
let severity_rank s = Severity.rank Critical - Severity.rank s
let severity_name = Severity.name

let kind_of = function
  | Enforcement_off -> "enforcement_off"
  | Unguarded_export _ -> "unguarded_export"
  | Broken_rule _ -> "broken_rule"
  | Foreign_gate _ -> "foreign_gate"
  | No_rule _ -> "no_rule"
  | Overbroad_gate _ -> "overbroad_gate"
  | Dead_gate _ -> "dead_gate"
  | Closed_cycle _ -> "closed_cycle"
  | Dangling_edge _ -> "dangling_edge"

let message = function
  | Enforcement_off ->
      "information-flow enforcement is disabled platform-wide: every tag can \
       reach the public network unchecked"
  | Unguarded_export { tag; holder } ->
      Printf.sprintf
        "%s holds declassification privilege (t-) for foreign tag %s — data \
         can cross the perimeter with no declassifier decision"
        holder tag
  | Broken_rule { tag; gate; missing } ->
      if missing then
        Printf.sprintf
          "policy routes %s through gate %s, which is not registered: every \
           export of the tag will fail"
          tag gate
      else
        Printf.sprintf
          "policy routes %s through gate %s, which lacks t- for it: every \
           export of the tag will fail"
          tag gate
  | Foreign_gate { tag; gate; gate_owner } ->
      Printf.sprintf
        "exports of %s are decided by gate %s owned by %s, not the tag's \
         owner — the tag is effectively public to whatever that code approves"
        tag gate gate_owner
  | No_rule { tag } ->
      Printf.sprintf
        "%s has no authorized declassifier: the data is reachable by apps \
         but every export toward a non-owner will be denied"
        tag
  | Overbroad_gate { gate; extra } ->
      Printf.sprintf
        "gate %s holds t- for %s beyond any policy authorization"
        gate
        (String.concat ", " extra)
  | Dead_gate { gate } ->
      Printf.sprintf
        "gate %s is registered but no policy routes any tag through it" gate
  | Closed_cycle { cycle_members } ->
      Printf.sprintf
        "dependency cycle through closed-binary code: %s"
        (String.concat " -> " cycle_members)
  | Dangling_edge { app; edge; target } ->
      Printf.sprintf "%s %ss %s, which is not in the registry" app edge target

(* ---- strongly connected components (Tarjan) -------------------------- *)

let sccs ~nodes ~successors =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  (* invariant-keyed lookup: [strongconnect] assigns index and lowlink
     to a node before ever reading them back, so a miss here is a bug
     in the traversal itself, not an input condition *)
  let tarjan_get tbl v =
    match Hashtbl.find_opt tbl v with
    | Some x -> x
    | None -> invalid_arg "Vet.sccs: unvisited node in Tarjan lookup"
  in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (tarjan_get lowlink v) (tarjan_get lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (tarjan_get lowlink v) (tarjan_get index w)))
      (successors v);
    if tarjan_get lowlink v = tarjan_get index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !components

(* ---- findings -------------------------------------------------------- *)

let analyze st =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  if not (Static.enforcing st) then emit Enforcement_off;
  List.iter
    (fun (holder, tag) -> emit (Unguarded_export { tag; holder = "account:" ^ holder }))
    (Static.foreign_minus st);
  let secrecy_tags =
    List.filter (fun ti -> ti.Static.secrecy) (Static.tags st)
  in
  List.iter
    (fun (ti : Static.tag_info) ->
      match Static.disposition st ti with
      | Static.Broken { gate; missing } ->
          emit (Broken_rule { tag = ti.Static.tag_name; gate; missing })
      | Static.Via_gate gate -> (
          match (Static.find_gate st gate, ti.Static.owner) with
          | Some gi, Some owner when gi.Static.gate_owner <> owner ->
              emit
                (Foreign_gate
                   {
                     tag = ti.Static.tag_name;
                     gate;
                     gate_owner = gi.Static.gate_owner;
                   })
          | _ -> ())
      | Static.Owner_only ->
          if ti.Static.owner <> None then
            emit (No_rule { tag = ti.Static.tag_name }))
    secrecy_tags;
  List.iter
    (fun (gi : Static.gate_info) ->
      if gi.Static.authorized_for = [] then
        emit (Dead_gate { gate = gi.Static.gate })
      else
        let extra =
          List.filter
            (fun tag -> not (List.mem tag gi.Static.authorized_for))
            gi.Static.drops
        in
        if extra <> [] then emit (Overbroad_gate { gate = gi.Static.gate; extra }))
    (Static.gates st);
  (* Import/embed cycles through closed binaries. *)
  let apps = Static.apps st in
  let nodes = List.map (fun a -> a.Static.app_id) apps in
  let succ_tbl = Hashtbl.create 64 in
  List.iter
    (fun (a : Static.app_info) ->
      Hashtbl.replace succ_tbl a.Static.app_id
        (List.filter (Static.is_app st)
           (List.sort_uniq compare (a.Static.imports @ a.Static.embeds))))
    apps;
  let successors v = Option.value ~default:[] (Hashtbl.find_opt succ_tbl v) in
  let closed id =
    match List.find_opt (fun a -> a.Static.app_id = id) apps with
    | Some a -> not a.Static.open_source
    | None -> false
  in
  List.iter
    (fun component ->
      let cyclic =
        match component with
        | [] -> false
        | [ v ] -> List.mem v (successors v)
        | _ -> true
      in
      if cyclic && List.exists closed component then
        emit (Closed_cycle { cycle_members = List.sort compare component }))
    (sccs ~nodes ~successors);
  List.iter
    (fun (a : Static.app_info) ->
      let dangling edge targets =
        List.iter
          (fun target ->
            if not (Static.is_app st target) then
              emit (Dangling_edge { app = a.Static.app_id; edge; target }))
          targets
      in
      dangling "import" a.Static.imports;
      dangling "embed" a.Static.embeds)
    apps;
  List.stable_sort
    (fun a b -> compare (severity_rank (severity_of a)) (severity_rank (severity_of b)))
    (List.rev !findings)

(* ---- runtime differential pass --------------------------------------- *)

type violation = {
  v_seq : int;
  v_pid : int;
  v_holder : string;
  v_kind : string;
  v_tag : string;
}

type runtime = {
  checked : int;
  predicted : int;
  unknown : int;
  violations : violation list;
}

let holder_name = function
  | Static.App a -> "app:" ^ a
  | Static.Gate g -> "gate:" ^ g
  | Static.Tcb -> "tcb"

let fold_audit st log =
  let classes : (int, Static.holder) Hashtbl.t = Hashtbl.create 256 in
  let holder_of pid =
    Option.value ~default:Static.Tcb (Hashtbl.find_opt classes pid)
  in
  let checked = ref 0 and predicted = ref 0 and unknown = ref 0 in
  let violations = ref [] in
  let note (entry : Audit.entry) kind tag verdict =
    incr checked;
    match verdict with
    | Static.Predicted -> incr predicted
    | Static.Unknown -> incr unknown
    | Static.Unpredicted ->
        violations :=
          {
            v_seq = entry.Audit.seq;
            v_pid = entry.Audit.pid;
            v_holder = holder_name (holder_of entry.Audit.pid);
            v_kind = kind;
            v_tag = tag;
          }
          :: !violations
  in
  Audit.iter log ~f:(fun entry ->
      match entry.Audit.event with
      | Audit.Spawned { child; name; _ } ->
          let cls =
            if Static.is_app st name then Static.App name
            else holder_of entry.Audit.pid
          in
          Hashtbl.replace classes child cls
      | Audit.Gate_invoked { gate; child } ->
          Hashtbl.replace classes child (Static.Gate gate)
      | Audit.Tainted { added; _ } -> (
          match holder_of entry.Audit.pid with
          | Static.Tcb -> ()
          | holder ->
              Label.iter
                (fun tag ->
                  let name = Tag.name tag in
                  note entry "taint" name (Static.can_carry st holder name))
                added)
      | Audit.Declassified { tag; _ } -> (
          match holder_of entry.Audit.pid with
          | Static.Tcb -> ()
          | holder ->
              let name = Tag.name tag in
              note entry "declassify" name (Static.may_drop st holder name))
      | Audit.Label_changed { old_labels; new_labels; decision = Ok () } -> (
          match holder_of entry.Audit.pid with
          | Static.Tcb -> ()
          | holder ->
              let added =
                Label.diff new_labels.Flow.secrecy old_labels.Flow.secrecy
              in
              let dropped =
                Label.diff old_labels.Flow.secrecy new_labels.Flow.secrecy
              in
              Label.iter
                (fun tag ->
                  let name = Tag.name tag in
                  note entry "relabel" name (Static.can_carry st holder name))
                added;
              Label.iter
                (fun tag ->
                  let name = Tag.name tag in
                  note entry "relabel" name (Static.may_drop st holder name))
                dropped)
      | Audit.Export_attempted { destination; labels; decision = Ok () } ->
          let viewer =
            if destination = "anonymous client" then None
            else
              let suffix = "'s browser" in
              if String.ends_with ~suffix destination then
                Some
                  (String.sub destination 0
                     (String.length destination - String.length suffix))
              else None
          in
          Label.iter
            (fun tag ->
              let name = Tag.name tag in
              note entry "export" name (Static.may_export st ~tag:name ~viewer))
            labels.Flow.secrecy
      | Audit.Label_changed _ | Audit.Export_attempted _ | Audit.Flow_checked _
      | Audit.Object_labeled _ | Audit.Sync_applied _ | Audit.Sync_fault _
      | Audit.Sync_recovered _ | Audit.Killed _ | Audit.Quota_hit _
      | Audit.App_note _ ->
          ());
  {
    checked = !checked;
    predicted = !predicted;
    unknown = !unknown;
    violations = List.rev !violations;
  }

(* ---- reports --------------------------------------------------------- *)

type report = {
  static : Static.t;
  findings : finding list;
  runtime : runtime option;
}

let report ?runtime st = { static = st; findings = analyze st; runtime }

let max_severity r =
  let unsound =
    match r.runtime with Some rt -> rt.violations <> [] | None -> false
  in
  Severity.worst
    ((if unsound then [ Critical ] else []) @ List.map severity_of r.findings)

let exit_code r = Severity.exit_code (max_severity r)

let disposition_string st (ti : Static.tag_info) =
  if not ti.Static.secrecy then "integrity"
  else
    match Static.disposition st ti with
    | Static.Owner_only -> "owner-only"
    | Static.Via_gate gate -> "via " ^ gate
    | Static.Broken { gate; missing } ->
        if missing then "broken: " ^ gate ^ " missing"
        else "broken: " ^ gate ^ " lacks t-"

let count_severity findings sev =
  List.length (List.filter (fun f -> severity_of f = sev) findings)

(* ---- JSON ------------------------------------------------------------ *)

let jbool b = if b then "true" else "false"
let jlist items = "[" ^ String.concat ", " items ^ "]"
let jstrings items = jlist (List.map Exposition.json_string items)

let to_json r =
  let st = r.static in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let array_block name render items next =
    let name = Exposition.json_string name in
    if items = [] then line "  %s: [],%s" name next
    else begin
      line "  %s: [" name;
      let n = List.length items in
      List.iteri
        (fun i item ->
          line "    {%s}%s" (render item) (if i = n - 1 then "" else ","))
        items;
      line "  ],%s" next
    end
  in
  line "{";
  line "  \"schema\": \"w5.vet/1\",";
  line "  \"enforcing\": %s," (jbool (Static.enforcing st));
  let fs = r.findings in
  line "  \"summary\": {";
  line "    \"users\": %d, \"apps\": %d, \"gates\": %d, \"tags\": %d, \"groups\": %d,"
    (List.length (Static.users st))
    (List.length (Static.apps st))
    (List.length (Static.gates st))
    (List.length (Static.tags st))
    (List.length (Static.groups st));
  line "    \"critical\": %d, \"high\": %d, \"warning\": %d, \"info\": %d"
    (count_severity fs Critical) (count_severity fs High)
    (count_severity fs Warning) (count_severity fs Info);
  line "  },";
  array_block "apps"
    (fun (a : Static.app_info) ->
      String.concat ", "
        [
          Printf.sprintf "\"id\": %s"
            (Exposition.json_string a.Static.app_id);
          Printf.sprintf "\"version\": %s"
            (Exposition.json_string a.Static.version);
          Printf.sprintf "\"open_source\": %s" (jbool a.Static.open_source);
          Printf.sprintf "\"vetted\": %s" (jbool a.Static.vetted);
          Printf.sprintf "\"installs\": %d" a.Static.installs;
          Printf.sprintf "\"imports\": %s" (jstrings a.Static.imports);
          Printf.sprintf "\"embeds\": %s" (jstrings a.Static.embeds);
          Printf.sprintf "\"enabled_by\": %s" (jstrings a.Static.enabled_by);
        ])
    (Static.apps st) "";
  array_block "tags"
    (fun (ti : Static.tag_info) ->
      String.concat ", "
        [
          Printf.sprintf "\"name\": %s"
            (Exposition.json_string ti.Static.tag_name);
          Printf.sprintf "\"restricted\": %s" (jbool ti.Static.restricted);
          Printf.sprintf "\"owner\": %s"
            (match ti.Static.owner with
            | None -> "null"
            | Some o -> Exposition.json_string o);
          Printf.sprintf "\"disposition\": %s"
            (Exposition.json_string (disposition_string st ti));
        ])
    (Static.tags st) "";
  array_block "gates"
    (fun (gi : Static.gate_info) ->
      String.concat ", "
        [
          Printf.sprintf "\"name\": %s" (Exposition.json_string gi.Static.gate);
          Printf.sprintf "\"owner\": %s"
            (Exposition.json_string gi.Static.gate_owner);
          Printf.sprintf "\"clears\": %s" (jstrings gi.Static.drops);
          Printf.sprintf "\"absorbs\": %s" (jstrings gi.Static.adds);
          Printf.sprintf "\"authorized_for\": %s"
            (jstrings gi.Static.authorized_for);
        ])
    (Static.gates st) "";
  array_block "findings"
    (fun f ->
      String.concat ", "
        [
          Printf.sprintf "\"severity\": %s"
            (Exposition.json_string (severity_name (severity_of f)));
          Printf.sprintf "\"kind\": %s" (Exposition.json_string (kind_of f));
          Printf.sprintf "\"message\": %s"
            (Exposition.json_string (message f));
        ])
    r.findings "";
  (match r.runtime with
  | None -> line "  \"runtime\": null"
  | Some rt ->
      line "  \"runtime\": {";
      line "    \"checked\": %d, \"predicted\": %d, \"unknown\": %d," rt.checked
        rt.predicted rt.unknown;
      if rt.violations = [] then line "    \"violations\": []"
      else begin
        line "    \"violations\": [";
        let n = List.length rt.violations in
        List.iteri
          (fun i v ->
            line "      {\"seq\": %d, \"pid\": %d, \"holder\": %s, \"kind\": %s, \"tag\": %s}%s"
              v.v_seq v.v_pid
              (Exposition.json_string v.v_holder)
              (Exposition.json_string v.v_kind)
              (Exposition.json_string v.v_tag)
              (if i = n - 1 then "" else ","))
          rt.violations;
        line "    ]"
      end;
      line "  }");
  line "}";
  Buffer.contents b

(* ---- text ------------------------------------------------------------ *)

let to_text r =
  let st = r.static in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "w5 vet — static label-flow analysis";
  line "platform: %d users, %d apps, %d gates, %d tags, %d groups; enforcement %s"
    (List.length (Static.users st))
    (List.length (Static.apps st))
    (List.length (Static.gates st))
    (List.length (Static.tags st))
    (List.length (Static.groups st))
    (if Static.enforcing st then "on" else "OFF");
  line "";
  (match r.findings with
  | [] -> line "findings: none"
  | fs ->
      line "findings (%d):" (List.length fs);
      List.iter
        (fun f -> line "  [%s] %s" (severity_name (severity_of f)) (message f))
        fs);
  line "";
  line "tags:";
  List.iter
    (fun (ti : Static.tag_info) ->
      if ti.Static.secrecy then
        line "  %-28s %s%s" ti.Static.tag_name (disposition_string st ti)
          (if ti.Static.restricted then "  (restricted)" else ""))
    (Static.tags st);
  line "";
  line "gates:";
  List.iter
    (fun (gi : Static.gate_info) ->
      line "  %-32s clears {%s}  authorized for {%s}" gi.Static.gate
        (String.concat ", " gi.Static.drops)
        (String.concat ", " gi.Static.authorized_for))
    (Static.gates st);
  (match r.runtime with
  | None -> ()
  | Some rt ->
      line "";
      line "runtime (audit log vs. static graph):";
      line "  %d flow edges checked: %d predicted, %d on post-snapshot tags, %d UNPREDICTED"
        rt.checked rt.predicted rt.unknown
        (List.length rt.violations);
      List.iter
        (fun v ->
          line "  !! #%d pid=%d %s %s %s" v.v_seq v.v_pid v.v_holder v.v_kind
            v.v_tag)
        rt.violations);
  Buffer.contents b

(* ---- metrics --------------------------------------------------------- *)

(* Finding counts by severity — label values are the closed severity
   set, so no user byte can leak through the exposition (the canary
   sweep in the test suite asserts this). *)
let export_metrics registry r =
  let g =
    Metrics.gauge registry "w5_vet_findings_total"
      ~help:"Vet findings by severity at the last analysis"
  in
  List.iter
    (fun s ->
      Metrics.set g
        ~labels:[ ("severity", Severity.name s) ]
        (count_severity r.findings s))
    Severity.all

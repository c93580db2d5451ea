(* Tests for the simulated kernel: labeled filesystem semantics,
   syscall-level flow checks, IPC, spawning, gates, quotas, audit. *)

open W5_difc
open W5_os

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let fail_err e = Alcotest.failf "unexpected error: %s" (Os_error.to_string e)
let ok = function Ok v -> v | Error e -> fail_err e

let expect_denied label = function
  | Error e when Os_error.is_denied e -> ()
  | Error e -> Alcotest.failf "%s: wrong error: %s" label (Os_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly allowed" label

(* Run [f] inside a fresh synchronous process on [kernel]. *)
let run kernel ?(labels = Flow.bottom) ?(caps = Capability.Set.empty)
    ?(limits = Resource.unlimited) ~name f =
  let result = ref None in
  let proc =
    ok
      (Kernel.spawn kernel ~name
         ~owner:(Kernel.kernel_principal kernel)
         ~labels ~caps ~limits
         (fun ctx -> result := Some (f ctx)))
  in
  Kernel.run_proc kernel proc;
  (proc, !result)

let run_value kernel ?labels ?caps ?limits ~name f =
  match run kernel ?labels ?caps ?limits ~name f with
  | _, Some v -> v
  | proc, None ->
      Alcotest.failf "process %s died: %s" name
        (Format.asprintf "%a" Proc.pp proc)

(* A process that is spawned but never run: it stays [Runnable]
   (alive), so other processes can message it. *)
let spawn_dormant kernel ?(labels = Flow.bottom) ?(caps = Capability.Set.empty)
    ~name () =
  ok
    (Kernel.spawn kernel ~name
       ~owner:(Kernel.kernel_principal kernel)
       ~labels ~caps ~limits:Resource.unlimited
       (fun _ -> ()))

(* ---- resource accounting ---- *)

let test_resource_charge () =
  let usage = Resource.fresh_usage () in
  let limits = Resource.make_limits ~cpu:10 () in
  check bool_c "within" true (Resource.charge usage limits Resource.Cpu 9 = Ok ());
  check int_c "used" 9 (Resource.used usage Resource.Cpu);
  check int_c "remaining" 1 (Resource.remaining usage limits Resource.Cpu);
  check bool_c "exceed" true
    (Resource.charge usage limits Resource.Cpu 2 = Error Resource.Cpu);
  check int_c "zero remaining" 0 (Resource.remaining usage limits Resource.Cpu)

(* ---- filesystem mechanism ---- *)

let test_fs_paths () =
  check string_c "dirname" "/a/b" (Fs.dirname "/a/b/c");
  check string_c "dirname root child" "/" (Fs.dirname "/a");
  check string_c "basename" "c" (Fs.basename "/a/b/c");
  check string_c "join" "/a/b" (Fs.join_path "/a" "b");
  check string_c "join root" "/b" (Fs.join_path "/" "b")

let test_fs_tree () =
  let fs = Fs.create () in
  ok (Fs.mkdir fs "/d" ~labels:Flow.bottom);
  ok (Fs.create_file fs "/d/f" ~labels:Flow.bottom ~data:"hello");
  let data, _ = ok (Fs.read fs "/d/f") in
  check string_c "read back" "hello" data;
  ok (Fs.append fs "/d/f" ~data:" world");
  let data, _ = ok (Fs.read fs "/d/f") in
  check string_c "append" "hello world" data;
  let names, _ = ok (Fs.readdir fs "/d") in
  check (Alcotest.list string_c) "listing" [ "f" ] names;
  let st = ok (Fs.stat fs "/d/f") in
  check int_c "size" 11 st.Fs.size;
  check int_c "version bumped" 2 st.Fs.version;
  (match Fs.unlink fs "/d" with
  | Error (Os_error.Invalid _) -> ()
  | Ok () | Error _ -> Alcotest.fail "unlink of non-empty dir must fail");
  ok (Fs.unlink fs "/d/f");
  check bool_c "gone" false (Fs.exists fs "/d/f");
  ok (Fs.unlink fs "/d")

let test_fs_errors () =
  let fs = Fs.create () in
  (match Fs.read fs "/nope" with
  | Error (Os_error.Not_found _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_found");
  ok (Fs.create_file fs "/f" ~labels:Flow.bottom ~data:"");
  (match Fs.create_file fs "/f" ~labels:Flow.bottom ~data:"" with
  | Error (Os_error.Already_exists _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Already_exists");
  (match Fs.mkdir fs "/f/sub" ~labels:Flow.bottom with
  | Error (Os_error.Not_a_directory _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_a_directory");
  match Fs.readdir fs "/f" with
  | Error (Os_error.Not_a_directory _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Not_a_directory on readdir"

(* ---- syscall flow checks ---- *)

let secret_setup kernel =
  (* A secret file under a secret directory, created by a properly
     labeled process. *)
  let tag = Tag.fresh ~name:"os.secret" Tag.Secrecy in
  let labels = Flow.make ~secrecy:(Label.singleton tag) () in
  run_value kernel ~name:"setup" (fun ctx ->
      ok (Syscall.mkdir ctx "/vault" ~labels);
      ok (Syscall.create_file ctx "/vault/s" ~labels ~data:"classified"));
  tag

let test_read_strict_vs_taint () =
  let kernel = Kernel.create () in
  let tag = secret_setup kernel in
  (* strict read from an untainted process: denied *)
  run_value kernel ~name:"strict" (fun ctx ->
      expect_denied "strict read" (Syscall.read_file ctx "/vault/s"));
  (* taint read: allowed, and the label sticks *)
  run_value kernel ~name:"taint" (fun ctx ->
      let data = ok (Syscall.read_file_taint ctx "/vault/s") in
      check string_c "content" "classified" data;
      check bool_c "tainted" true
        (Label.mem tag (Syscall.my_labels ctx).Flow.secrecy));
  (* pre-tainted strict read: allowed *)
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"pretainted" (fun ctx ->
      check string_c "content" "classified"
        (ok (Syscall.read_file ctx "/vault/s")))

let test_tainted_cannot_write_low () =
  let kernel = Kernel.create () in
  let tag = secret_setup kernel in
  run_value kernel ~name:"public-setup" (fun ctx ->
      ok (Syscall.create_file ctx "/public" ~labels:Flow.bottom ~data:"old"));
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"leaker" (fun ctx ->
      expect_denied "write low file" (Syscall.write_file ctx "/public" ~data:"x");
      expect_denied "create low file"
        (Syscall.create_file ctx "/exfil" ~labels:Flow.bottom ~data:"x");
      (* creating an equally tainted file in an equally tainted
         directory is fine *)
      ok
        (Syscall.create_file ctx "/vault/tainted-out"
           ~labels:(Syscall.my_labels ctx)
           ~data:"x"))

let test_write_protection () =
  let kernel = Kernel.create () in
  let wtag = Tag.fresh ~name:"os.write" Tag.Integrity in
  let flabels = Flow.make ~integrity:(Label.singleton wtag) () in
  run_value kernel ~labels:flabels
    ~caps:(Capability.Set.grant_dual wtag Capability.Set.empty)
    ~name:"owner" (fun ctx ->
      ok (Syscall.create_file ctx "/protected" ~labels:flabels ~data:"v1"));
  (* without the write tag: denied, including deletion *)
  run_value kernel ~name:"vandal" (fun ctx ->
      expect_denied "overwrite" (Syscall.write_file ctx "/protected" ~data:"x");
      expect_denied "delete" (Syscall.unlink ctx "/protected"));
  (* with t+ one can endorse and then write *)
  run_value kernel
    ~caps:(Capability.Set.of_list [ Capability.make wtag Capability.Plus ])
    ~name:"delegate" (fun ctx ->
      ok (Syscall.endorse_self ctx wtag);
      ok (Syscall.write_file ctx "/protected" ~data:"v2"));
  run_value kernel ~name:"verify" (fun ctx ->
      check string_c "new content" "v2" (ok (Syscall.read_file_taint ctx "/protected")))

let test_label_change_conventions () =
  let kernel = Kernel.create () in
  let s = Tag.fresh ~name:"conv.s" Tag.Secrecy in
  let w = Tag.fresh ~name:"conv.w" Tag.Integrity in
  run_value kernel ~name:"conv" (fun ctx ->
      (* raising secrecy: free *)
      ok (Syscall.add_taint ctx (Label.singleton s));
      (* dropping secrecy without caps: denied *)
      expect_denied "declassify" (Syscall.declassify_self ctx s);
      (* raising integrity without caps: denied *)
      expect_denied "endorse" (Syscall.endorse_self ctx w);
      (* dropping integrity: free *)
      ok (Syscall.drop_integrity ctx w));
  run_value kernel ~caps:(Capability.Set.grant_dual s Capability.Set.empty)
    ~name:"privileged" (fun ctx ->
      ok (Syscall.add_taint ctx (Label.singleton s));
      ok (Syscall.declassify_self ctx s);
      check bool_c "clean" true
        (Label.is_empty (Syscall.my_labels ctx).Flow.secrecy))

let test_restricted_tags () =
  let kernel = Kernel.create () in
  let locked = Tag.fresh ~name:"os.locked" ~restricted:true Tag.Secrecy in
  let labels = Flow.make ~secrecy:(Label.singleton locked) () in
  run_value kernel
    ~caps:(Capability.Set.grant_dual locked Capability.Set.empty)
    ~name:"owner" (fun ctx ->
      (* create the protected subtree from an untainted stance, then
         fill it once tainted *)
      ok (Syscall.mkdir ctx "/lockbox" ~labels);
      ok (Syscall.add_taint ctx (Label.singleton locked));
      ok (Syscall.create_file ctx "/lockbox/locked" ~labels ~data:"ssh"));
  (* an unprivileged process cannot even taint-read *)
  run_value kernel ~name:"snoop" (fun ctx ->
      expect_denied "taint read" (Syscall.read_file_taint ctx "/lockbox/locked");
      expect_denied "self taint" (Syscall.add_taint ctx (Label.singleton locked)));
  (* holding t+ suffices to read (but not to export) *)
  run_value kernel
    ~caps:(Capability.Set.of_list [ Capability.make locked Capability.Plus ])
    ~name:"reader" (fun ctx ->
      check string_c "read" "ssh" (ok (Syscall.read_file_taint ctx "/lockbox/locked")))

let test_relabel_rules () =
  let kernel = Kernel.create () in
  let s = Tag.fresh ~name:"rl.s" Tag.Secrecy in
  run_value kernel ~name:"setup" (fun ctx ->
      ok (Syscall.create_file ctx "/obj" ~labels:Flow.bottom ~data:"d"));
  (* raising an object's secrecy is allowed for a writer *)
  run_value kernel ~name:"raiser" (fun ctx ->
      ok
        (Syscall.set_file_labels ctx "/obj"
           ~labels:(Flow.make ~secrecy:(Label.singleton s) ())));
  (* stripping it without t- is not *)
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton s) ())
    ~name:"stripper" (fun ctx ->
      expect_denied "strip" (Syscall.set_file_labels ctx "/obj" ~labels:Flow.bottom))

(* ---- IPC ---- *)

let test_ipc_flow () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"ipc.s" Tag.Secrecy in
  let tainted = Flow.make ~secrecy:(Label.singleton tag) () in
  (* spawn a receiver that stays dormant; we just use its mailbox *)
  let receiver = spawn_dormant kernel ~name:"receiver" () in
  (* a clean sender can message it *)
  run_value kernel ~name:"sender" (fun ctx ->
      ok (Syscall.send ctx ~to_:receiver.Proc.pid "hi"));
  (* a tainted sender cannot message a clean receiver *)
  run_value kernel ~labels:tainted ~name:"tainted-sender" (fun ctx ->
      expect_denied "tainted send" (Syscall.send ctx ~to_:receiver.Proc.pid "leak"));
  check int_c "one message queued" 1 (Queue.length receiver.Proc.mailbox)

let test_ipc_recv_taints () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"ipc2.s" Tag.Secrecy in
  let tainted = Flow.make ~secrecy:(Label.singleton tag) () in
  let receiver = spawn_dormant kernel ~labels:tainted ~name:"hi-receiver" () in
  run_value kernel ~labels:tainted ~name:"hi-sender" (fun ctx ->
      ok (Syscall.send ctx ~to_:receiver.Proc.pid "secret-hello"));
  (* drain its mailbox in place *)
  let ctx = { Kernel.kernel; proc = receiver } in
  (match ok (Syscall.recv ctx) with
  | Some msg -> check string_c "body" "secret-hello" msg.Proc.body
  | None -> Alcotest.fail "expected a message");
  check bool_c "receiver tainted" true
    (Label.mem tag receiver.Proc.labels.Flow.secrecy)

let test_cap_grant_over_ipc () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"grant.s" Tag.Secrecy in
  let minus = Capability.make tag Capability.Minus in
  let receiver = spawn_dormant kernel ~name:"grantee" () in
  (* sender owning the cap may grant it *)
  run_value kernel
    ~caps:(Capability.Set.of_list [ minus ])
    ~name:"grantor" (fun ctx ->
      ok (Syscall.grant_cap ctx ~to_:receiver.Proc.pid minus));
  check bool_c "received" true (Capability.Set.mem minus receiver.Proc.caps);
  (* sender not owning a cap may not grant it *)
  run_value kernel ~name:"pretender" (fun ctx ->
      match Syscall.grant_cap ctx ~to_:receiver.Proc.pid minus with
      | Error (Os_error.Permission _) -> ()
      | Ok () | Error _ -> Alcotest.fail "expected permission error")

(* ---- spawn / gates ---- *)

let test_spawn_restrictions () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"sp.s" Tag.Secrecy in
  let minus = Capability.make tag Capability.Minus in
  run_value kernel ~name:"parent" (fun ctx ->
      (* can't hand a child caps we don't own *)
      (match
         Syscall.spawn ctx ~name:"child"
           ~caps:(Capability.Set.of_list [ minus ])
           (fun _ -> ())
       with
      | Error (Os_error.Permission _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected permission error");
      (* can't spawn a child with lower secrecy than our own *)
      ok (Syscall.add_taint ctx (Label.singleton tag));
      match Syscall.spawn ctx ~name:"laundry" ~labels:Flow.bottom (fun _ -> ()) with
      | Error e when Os_error.is_denied e -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected denial")

let test_spawn_and_run () =
  let kernel = Kernel.create () in
  let witness = ref 0 in
  run_value kernel ~name:"parent" (fun ctx ->
      ignore (ok (Syscall.spawn ctx ~name:"child" (fun _ -> incr witness))));
  Kernel.run kernel;
  check int_c "child ran" 1 !witness

let test_gate_confers_caps () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"gate.s" Tag.Secrecy in
  let caps = Capability.Set.of_list [ Capability.make tag Capability.Minus ] in
  Kernel.register_gate kernel ~name:"declassifier-ish"
    ~owner:(Kernel.kernel_principal kernel) ~caps ~entry:(fun ctx arg ->
      ok (Syscall.declassify_self ctx tag);
      ignore (Syscall.respond ctx ("clean:" ^ arg)));
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"caller" (fun ctx ->
      match ok (Syscall.invoke_gate ctx "declassifier-ish" ~arg:"payload") with
      | Some (out, out_labels) ->
          check string_c "transformed" "clean:payload" out;
          check bool_c "label dropped" false
            (Label.mem tag out_labels.Flow.secrecy)
      | None -> Alcotest.fail "expected a gate response");
  run_value kernel ~name:"no-gate" (fun ctx ->
      match Syscall.invoke_gate ctx "missing" ~arg:"" with
      | Error (Os_error.No_such_gate _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected No_such_gate")

(* ---- quotas ---- *)

let test_quota_kills_loop () =
  let kernel = Kernel.create () in
  let proc, _ =
    run kernel
      ~limits:(Resource.make_limits ~cpu:100 ())
      ~name:"hog"
      (fun ctx ->
        let rec burn () =
          ignore (Syscall.file_exists ctx "/");
          burn ()
        in
        burn ())
  in
  (match proc.Proc.state with
  | Proc.Killed reason ->
      check bool_c "killed by cpu quota" true
        (String.length reason >= 5 && String.sub reason 0 5 = "quota")
  | _ -> Alcotest.fail "expected quota kill");
  (* others unaffected *)
  run_value kernel ~name:"bystander" (fun ctx ->
      check bool_c "alive and well" true (Syscall.file_exists ctx "/"))

let test_quota_disk () =
  let kernel = Kernel.create () in
  let proc, _ =
    run kernel
      ~limits:(Resource.make_limits ~disk:64 ())
      ~name:"filler"
      (fun ctx ->
        let rec fill i =
          ignore
            (Syscall.create_file ctx
               (Printf.sprintf "/junk%d" i)
               ~labels:Flow.bottom ~data:(String.make 32 'x'));
          fill (i + 1)
        in
        fill 0)
  in
  match proc.Proc.state with
  | Proc.Killed _ -> ()
  | _ -> Alcotest.fail "expected disk-quota kill"

(* ---- audit ---- *)

let test_audit_denials () =
  let kernel = Kernel.create () in
  let tag = secret_setup kernel in
  ignore tag;
  run_value kernel ~name:"denied-app" (fun ctx ->
      expect_denied "strict read" (Syscall.read_file ctx "/vault/s"));
  let denials = Audit.denials (Kernel.audit kernel) in
  check bool_c "denial recorded" true (List.length denials >= 1);
  let entry = List.hd (List.rev denials) in
  match entry.Audit.event with
  | Audit.Flow_checked { op; decision = Error _; _ } ->
      check string_c "op" "fs.read" op
  | _ -> Alcotest.fail "expected a flow denial entry"

let test_audit_notes_and_queries () =
  let kernel = Kernel.create () in
  let proc, _ =
    run kernel ~name:"noisy" (fun ctx ->
        ok (Syscall.debug_note ctx "checkpoint-1");
        ok (Syscall.debug_note ctx "checkpoint-2"))
  in
  let mine = Audit.for_pid (Kernel.audit kernel) proc.Proc.pid in
  check int_c "two notes" 2
    (List.length
       (List.filter
          (fun e ->
            match e.Audit.event with Audit.App_note _ -> true | _ -> false)
          mine))

let test_enforcement_off () =
  let kernel = Kernel.create ~enforcing:false () in
  let tag = secret_setup kernel in
  ignore tag;
  (* with enforcement off the same strict read sails through: the
     baseline arm of the overhead benchmark *)
  run_value kernel ~name:"fastpath" (fun ctx ->
      check string_c "read allowed" "classified"
        (ok (Syscall.read_file ctx "/vault/s")))

let suite =
  [
    Alcotest.test_case "resource charge" `Quick test_resource_charge;
    Alcotest.test_case "fs paths" `Quick test_fs_paths;
    Alcotest.test_case "fs tree" `Quick test_fs_tree;
    Alcotest.test_case "fs errors" `Quick test_fs_errors;
    Alcotest.test_case "read strict vs taint" `Quick test_read_strict_vs_taint;
    Alcotest.test_case "tainted cannot write low" `Quick
      test_tainted_cannot_write_low;
    Alcotest.test_case "write protection" `Quick test_write_protection;
    Alcotest.test_case "label change conventions" `Quick
      test_label_change_conventions;
    Alcotest.test_case "restricted tags" `Quick test_restricted_tags;
    Alcotest.test_case "relabel rules" `Quick test_relabel_rules;
    Alcotest.test_case "ipc flow" `Quick test_ipc_flow;
    Alcotest.test_case "ipc recv taints" `Quick test_ipc_recv_taints;
    Alcotest.test_case "cap grant over ipc" `Quick test_cap_grant_over_ipc;
    Alcotest.test_case "spawn restrictions" `Quick test_spawn_restrictions;
    Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
    Alcotest.test_case "gates confer capabilities" `Quick test_gate_confers_caps;
    Alcotest.test_case "quota kills loop" `Quick test_quota_kills_loop;
    Alcotest.test_case "quota disk" `Quick test_quota_disk;
    Alcotest.test_case "audit denials" `Quick test_audit_denials;
    Alcotest.test_case "audit notes" `Quick test_audit_notes_and_queries;
    Alcotest.test_case "enforcement off" `Quick test_enforcement_off;
  ]

(* ---- filesystem snapshot / restore (durability) ---- *)

let test_fs_snapshot_roundtrip () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"snap.s" Tag.Secrecy in
  let wtag = Tag.fresh ~name:"snap.w" Tag.Integrity in
  let labels =
    Flow.make ~secrecy:(Label.singleton tag) ~integrity:(Label.singleton wtag) ()
  in
  run_value kernel
    ~labels:(Flow.make ~integrity:(Label.singleton wtag) ())
    ~caps:(Capability.Set.grant_dual wtag Capability.Set.empty)
    ~name:"writer"
    (fun ctx ->
      ok (Syscall.mkdir ctx "/home" ~labels:Flow.bottom);
      ok (Syscall.create_file ctx "/home/secret with spaces" ~labels ~data:"line1\nline2");
      ok (Syscall.create_file ctx "/home/plain" ~labels:Flow.bottom ~data:"");
      ok (Syscall.write_file ctx "/home/plain" ~data:"v2"));
  let fs = Kernel.fs kernel in
  let image = Fs.snapshot fs in
  (* mutate, then restore: everything must come back exactly *)
  ok (Fs.write fs "/home/plain" ~data:"mutated");
  ok (Fs.create_file fs "/junk" ~labels:Flow.bottom ~data:"junk");
  ok (Fs.restore_into fs image);
  check bool_c "junk gone" false (Fs.exists fs "/junk");
  let data, got_labels = ok (Fs.read fs "/home/secret with spaces") in
  check string_c "data with newline" "line1\nline2" data;
  check bool_c "secrecy preserved" true (Label.mem tag got_labels.Flow.secrecy);
  check bool_c "integrity preserved" true (Label.mem wtag got_labels.Flow.integrity);
  let st = ok (Fs.stat fs "/home/plain") in
  check int_c "version preserved" 2 st.Fs.version;
  let data, _ = ok (Fs.read fs "/home/plain") in
  check string_c "pre-snapshot content" "v2" data;
  check int_c "file count restored" 3 (Fs.total_files fs);
  (* determinism: snapshot of the restored tree is identical *)
  check string_c "stable image" image (Fs.snapshot fs)

let test_fs_snapshot_rejects_garbage () =
  let fs = Fs.create () in
  (match Fs.restore_into fs "F nonsense" with
  | Error (Os_error.Invalid _) -> ()
  | Ok () | Error _ -> Alcotest.fail "garbage accepted");
  (* unknown tag ids must not silently declassify *)
  match Fs.restore_into fs "D 2f 0 999999999 - 0\n" with
  | Error (Os_error.Invalid _) -> ()
  | Ok () | Error _ -> Alcotest.fail "unknown tag accepted"

let test_fs_snapshot_empty () =
  let fs = Fs.create () in
  let image = Fs.snapshot fs in
  ok (Fs.restore_into fs image);
  check int_c "still empty" 0 (Fs.total_files fs)

let suite =
  suite
  @ [
      Alcotest.test_case "fs snapshot roundtrip" `Quick test_fs_snapshot_roundtrip;
      Alcotest.test_case "fs snapshot rejects garbage" `Quick
        test_fs_snapshot_rejects_garbage;
      Alcotest.test_case "fs snapshot empty" `Quick test_fs_snapshot_empty;
    ]

(* ---- additional syscall edge cases ---- *)

let test_send_with_grant () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"sg.s" Tag.Secrecy in
  let minus = Capability.make tag Capability.Minus in
  let receiver = spawn_dormant kernel ~name:"rx" () in
  run_value kernel
    ~caps:(Capability.Set.of_list [ minus ])
    ~name:"tx" (fun ctx ->
      ok (Syscall.send ctx ~to_:receiver.Proc.pid
            ~grant:(Capability.Set.of_list [ minus ]) "here, take this"));
  let ctx = { Kernel.kernel; proc = receiver } in
  (match ok (Syscall.recv ctx) with
  | Some msg ->
      check bool_c "cap granted in message" true
        (Capability.Set.mem minus msg.Proc.granted)
  | None -> Alcotest.fail "no message");
  check bool_c "receiver now owns the cap" true
    (Capability.Set.mem minus receiver.Proc.caps);
  (* granting a cap you don't own inside a message fails *)
  run_value kernel ~name:"fraud" (fun ctx ->
      match
        Syscall.send ctx ~to_:receiver.Proc.pid
          ~grant:(Capability.Set.of_list [ minus ]) "forged"
      with
      | Error (Os_error.Permission _) -> ()
      | Ok () | Error _ -> Alcotest.fail "forged grant accepted")

let test_recv_empty_and_missing_target () =
  let kernel = Kernel.create () in
  run_value kernel ~name:"lonely" (fun ctx ->
      (match ok (Syscall.recv ctx) with
      | None -> ()
      | Some _ -> Alcotest.fail "phantom message");
      match Syscall.send ctx ~to_:9999 "void" with
      | Error (Os_error.No_such_process _) -> ()
      | Ok () | Error _ -> Alcotest.fail "sent to nobody")

let test_gate_restricted_response_needs_cap () =
  (* a gate whose response still carries a restricted tag cannot be
     absorbed by a caller lacking t+ *)
  let kernel = Kernel.create () in
  let locked = Tag.fresh ~name:"gl.s" ~restricted:true Tag.Secrecy in
  Kernel.register_gate kernel ~name:"leaky-gate"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:(Capability.Set.of_list [ Capability.make locked Capability.Plus ])
    ~entry:(fun ctx _arg ->
      ignore (Syscall.add_taint ctx (Label.singleton locked));
      ignore (Syscall.respond ctx "still hot"));
  run_value kernel ~name:"caller" (fun ctx ->
      match Syscall.invoke_gate ctx "leaky-gate" ~arg:"" with
      | Error e when Os_error.is_denied e -> ()
      | Ok _ -> Alcotest.fail "absorbed a restricted tag without t+"
      | Error e -> Alcotest.failf "wrong error: %s" (Os_error.to_string e))

let test_enforcement_off_allows_everything () =
  let kernel = Kernel.create ~enforcing:false () in
  let tag = Tag.fresh ~name:"off.s" Tag.Secrecy in
  let tainted = Flow.make ~secrecy:(Label.singleton tag) () in
  run_value kernel ~labels:tainted ~name:"wild" (fun ctx ->
      (* all the things enforcement would deny *)
      ok (Syscall.create_file ctx "/low" ~labels:Flow.bottom ~data:"leak");
      ok (Syscall.declassify_self ctx tag);
      ok (Syscall.set_labels ctx Flow.bottom);
      let receiver_labels = Flow.bottom in
      ignore receiver_labels);
  (* and quotas still apply even with checks off *)
  let proc, _ =
    run kernel
      ~limits:(Resource.make_limits ~cpu:50 ())
      ~name:"hog-off"
      (fun ctx ->
        let rec burn () =
          ignore (Syscall.file_exists ctx "/");
          burn ()
        in
        burn ())
  in
  match proc.Proc.state with
  | Proc.Killed _ -> ()
  | _ -> Alcotest.fail "quota ignored with enforcement off"

(* The process table holds live processes only: a process leaves it
   when it ends, however it ends, and one that has not started stays. *)
let test_process_leaves_table_when_it_ends () =
  let kernel = Kernel.create () in
  let gate_child = ref None in
  Kernel.register_gate kernel ~name:"echo"
    ~owner:(Kernel.kernel_principal kernel) ~caps:Capability.Set.empty
    ~entry:(fun ctx arg ->
      gate_child := Some ctx.Kernel.proc;
      ignore (Syscall.respond ctx arg));
  let finished, _ =
    run kernel ~name:"caller" (fun ctx ->
        ignore (Syscall.invoke_gate ctx "echo" ~arg:"hi"))
  in
  let hog, _ =
    run kernel ~limits:(Resource.make_limits ~cpu:5 ()) ~name:"hog" (fun ctx ->
        let rec burn () =
          ignore (Syscall.file_exists ctx "/");
          burn ()
        in
        burn ())
  in
  let dormant = spawn_dormant kernel ~name:"keeper" () in
  let child =
    match !gate_child with Some p -> p | None -> Alcotest.fail "gate never ran"
  in
  check bool_c "caller exited" true (finished.Proc.state = Proc.Exited);
  check bool_c "gate child exited" true (child.Proc.state = Proc.Exited);
  check bool_c "hog killed" true
    (match hog.Proc.state with Proc.Killed _ -> true | _ -> false);
  List.iter
    (fun (what, p) ->
      check bool_c (what ^ " left the table") true
        (Kernel.find_proc kernel p.Proc.pid = None))
    [ ("finished", finished); ("gate child", child); ("quota-killed", hog) ];
  check (Alcotest.list int_c) "only the dormant spawn stays"
    [ dormant.Proc.pid ]
    (List.map (fun p -> p.Proc.pid) (Kernel.processes kernel));
  check int_c "live count" 1 (Kernel.live_process_count kernel)

(* A pid that has ended is gone from the table, so IPC to it fails as
   it does for a pid that never existed. *)
let test_ended_pid_is_no_such_process () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"ended.s" Tag.Secrecy in
  let minus = Capability.make tag Capability.Minus in
  let gone, _ = run kernel ~name:"gone" (fun _ -> ()) in
  let sent, granted =
    run_value kernel
      ~caps:(Capability.Set.of_list [ minus ])
      ~name:"late" (fun ctx ->
        ( Syscall.send ctx ~to_:gone.Proc.pid "too late",
          Syscall.grant_cap ctx ~to_:gone.Proc.pid minus ))
  in
  let expect what = function
    | Error (Os_error.No_such_process pid) ->
        check int_c (what ^ " names the pid") gone.Proc.pid pid
    | Ok () -> Alcotest.failf "%s reached an ended process" what
    | Error e -> Alcotest.failf "%s: %s" what (Os_error.to_string e)
  in
  expect "send" sent;
  expect "grant_cap" granted

let test_respond_and_debug_note () =
  let kernel = Kernel.create () in
  let proc, _ =
    run kernel ~name:"responder" (fun ctx ->
        ok (Syscall.debug_note ctx "about to respond");
        ok (Syscall.respond ctx "payload"))
  in
  (match proc.Proc.response with
  | Some ("payload", labels) ->
      check bool_c "bottom labels" true (Label.is_empty labels.Flow.secrecy)
  | Some _ | None -> Alcotest.fail "response lost");
  (* responding twice keeps the last one *)
  let proc, _ =
    run kernel ~name:"chatty" (fun ctx ->
        ok (Syscall.respond ctx "first");
        ok (Syscall.respond ctx "second"))
  in
  match proc.Proc.response with
  | Some ("second", _) -> ()
  | Some _ | None -> Alcotest.fail "last response should win"

let test_spawned_children_inherit_taint_rules () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"child.s" Tag.Secrecy in
  let kid = ref None in
  run_value kernel ~name:"parent" (fun ctx ->
      ok (Syscall.add_taint ctx (Label.singleton tag));
      (* child with same labels: fine; runs with the taint *)
      kid :=
        Some
          (ok (Syscall.spawn ctx ~name:"kid" (fun kid_ctx ->
                   assert (Label.mem tag (Syscall.my_labels kid_ctx).Flow.secrecy)))));
  Kernel.run kernel;
  (* the assertion inside the child would have killed it; verify it exited *)
  match !kid with
  | Some p -> check bool_c "child exited cleanly" true (p.Proc.state = Proc.Exited)
  | None -> Alcotest.fail "child missing"

let suite =
  suite
  @ [
      Alcotest.test_case "send with grant" `Quick test_send_with_grant;
      Alcotest.test_case "recv empty / missing target" `Quick
        test_recv_empty_and_missing_target;
      Alcotest.test_case "gate restricted response" `Quick
        test_gate_restricted_response_needs_cap;
      Alcotest.test_case "enforcement off allows everything" `Quick
        test_enforcement_off_allows_everything;
      Alcotest.test_case "a process leaves the table when it ends" `Quick
        test_process_leaves_table_when_it_ends;
      Alcotest.test_case "send and grant to an ended pid" `Quick
        test_ended_pid_is_no_such_process;
      Alcotest.test_case "respond and debug note" `Quick
        test_respond_and_debug_note;
      Alcotest.test_case "children inherit taint" `Quick
        test_spawned_children_inherit_taint_rules;
    ]

(* ---- capability-exercising endpoint sends ---- *)

let test_send_use_caps_declassifies () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"ep.s" Tag.Secrecy in
  let receiver = spawn_dormant kernel ~name:"clean-rx" () in
  (* plain send from a tainted proc: denied *)
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~caps:(Capability.Set.of_list [ Capability.make tag Capability.Minus ])
    ~name:"tx" (fun ctx ->
      expect_denied "plain send" (Syscall.send ctx ~to_:receiver.Proc.pid "x");
      (* endpoint send exercising t-: allowed, message arrives clean *)
      ok (Syscall.send ctx ~to_:receiver.Proc.pid ~use_caps:true "laundered"));
  let ctx = { Kernel.kernel; proc = receiver } in
  (match ok (Syscall.recv ctx) with
  | Some msg ->
      check bool_c "message label clean" true
        (Label.is_empty msg.Proc.msg_labels.Flow.secrecy)
  | None -> Alcotest.fail "no message");
  check bool_c "receiver stays clean" true
    (Label.is_empty receiver.Proc.labels.Flow.secrecy);
  (* the implicit declassification is on the record *)
  let declassified =
    List.exists
      (fun e ->
        match e.Audit.event with
        | Audit.Declassified { context = "ipc.send"; _ } -> true
        | _ -> false)
      (Audit.entries (Kernel.audit kernel))
  in
  check bool_c "audited" true declassified;
  (* without t-, use_caps changes nothing *)
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"no-caps-tx" (fun ctx ->
      expect_denied "use_caps without caps"
        (Syscall.send ctx ~to_:receiver.Proc.pid ~use_caps:true "still hot"))

(* ---- services ---- *)

let test_service_handles_messages () =
  let kernel = Kernel.create () in
  let seen = ref [] in
  let service =
    ok
      (Service.create kernel ~name:"collector"
         ~owner:(Kernel.kernel_principal kernel)
         (fun _ctx msg -> seen := msg.Proc.body :: !seen))
  in
  (* the service has no body on the run queue: no drain may run it *)
  Kernel.run kernel;
  ignore (Sched.run kernel);
  check bool_c "alive after drains" true (Service.is_alive service);
  run_value kernel ~name:"producer" (fun ctx ->
      ok (Syscall.send ctx ~to_:(Service.pid service) "one");
      ok (Syscall.send ctx ~to_:(Service.pid service) "two"));
  check int_c "queued" 2 (Service.pending service);
  check int_c "handled now" 2 (ok (Service.deliver_pending service));
  check (Alcotest.list string_c) "order" [ "one"; "two" ] (List.rev !seen);
  check int_c "lifetime count" 2 (Service.handled service);
  check int_c "drained" 0 (Service.pending service);
  check int_c "idle pump" 0 (ok (Service.pump [ service ]));
  Service.shutdown service;
  check bool_c "dead" false (Service.is_alive service);
  check bool_c "left the table" true
    (Kernel.find_proc kernel (Service.pid service) = None);
  (match
     run_value kernel ~name:"late" (fun ctx ->
         Syscall.send ctx ~to_:(Service.pid service) "three")
   with
  | Error (Os_error.No_such_process _) -> ()
  | Ok () | Error _ -> Alcotest.fail "sent to a shut-down service");
  match Service.deliver_pending service with
  | Error (Os_error.Dead_process _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "delivered to a dead service"

let test_service_label_is_policy () =
  let kernel = Kernel.create () in
  let tag = Tag.fresh ~name:"svc.s" Tag.Secrecy in
  let notes = ref 0 in
  (* a notifier running AT the user's label: tainted friends can
     message it; the clean world cannot learn anything from it *)
  let notifier =
    ok
      (Service.create kernel ~name:"notifier"
         ~owner:(Kernel.kernel_principal kernel)
         ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
         (fun _ctx _msg -> incr notes))
  in
  (* a tainted app can notify *)
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"friend-app" (fun ctx ->
      ok (Syscall.send ctx ~to_:(Service.pid notifier) "ping"));
  ignore (ok (Service.deliver_pending notifier));
  check int_c "notified" 1 !notes;
  (* the notifier itself cannot signal a clean process *)
  let clean = spawn_dormant kernel ~name:"outside" () in
  let ctx = { Kernel.kernel; proc = Service.proc notifier } in
  expect_denied "notifier cannot leak"
    (Syscall.send ctx ~to_:clean.Proc.pid "data arrived!")

let test_service_quota_kill () =
  let kernel = Kernel.create () in
  let service =
    ok
      (Service.create kernel ~name:"fragile"
         ~owner:(Kernel.kernel_principal kernel)
         ~limits:(Resource.make_limits ~cpu:5 ())
         (fun ctx _msg ->
           let rec burn () =
             ignore (Syscall.file_exists ctx "/");
             burn ()
           in
           burn ()))
  in
  run_value kernel ~name:"poker" (fun ctx ->
      ok (Syscall.send ctx ~to_:(Service.pid service) "boom"));
  (match Service.deliver_pending service with
  | Error (Os_error.Quota_exceeded _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected quota kill");
  check bool_c "service dead" false (Service.is_alive service);
  (* booked like any other process's quota kill *)
  let kinds =
    List.map
      (fun e -> Audit.event_kind e.Audit.event)
      (Audit.for_pid (Kernel.audit kernel) (Service.pid service))
  in
  check bool_c "quota_hit audited" true (List.mem "quota_hit" kinds);
  check bool_c "kill audited" true (List.mem "killed" kinds);
  check int_c "kill counted" 1
    (W5_obs.Metrics.value (Kernel.meters kernel).Kernel.quota_kills
       ~labels:[ ("kind", "cpu") ])

let suite =
  suite
  @ [
      Alcotest.test_case "endpoint send declassifies" `Quick
        test_send_use_caps_declassifies;
      Alcotest.test_case "service handles messages" `Quick
        test_service_handles_messages;
      Alcotest.test_case "service label is policy" `Quick
        test_service_label_is_policy;
      Alcotest.test_case "service quota kill" `Quick test_service_quota_kill;
    ]

(* ---- property tests on the filesystem ---- *)

let prop_path_helpers =
  let arb =
    QCheck.make
      ~print:(fun segs -> "/" ^ String.concat "/" segs)
      QCheck.Gen.(
        list_size (1 -- 5)
          (string_size (1 -- 6) ~gen:(map Char.chr (97 -- 122))))
  in
  QCheck.Test.make ~name:"dirname/basename/join agree" ~count:300 arb
    (fun segments ->
      let path = "/" ^ String.concat "/" segments in
      let reassembled = Fs.join_path (Fs.dirname path) (Fs.basename path) in
      reassembled = path)

(* Random tree construction commands; interpreting them builds an
   arbitrary labeled filesystem, which must survive snapshot/restore
   byte-for-byte. *)
let snapshot_tags = Array.init 4 (fun i -> Tag.fresh ~name:(Printf.sprintf "snap.q%d" i) Tag.Secrecy)

let gen_fs_command =
  QCheck.Gen.(
    oneof
      [
        map2 (fun name tag_idx -> `Mkdir (name, tag_idx)) (0 -- 5) (0 -- 4);
        map3
          (fun name tag_idx data -> `Create (name, tag_idx, data))
          (0 -- 5) (0 -- 4)
          (string_size (0 -- 12) ~gen:(map Char.chr (0 -- 255)));
        map (fun name -> `Write name) (0 -- 5);
      ])

let arb_fs_program =
  QCheck.make
    ~print:(fun cmds -> Printf.sprintf "<%d fs commands>" (List.length cmds))
    QCheck.Gen.(list_size (0 -- 20) gen_fs_command)

let label_for idx =
  if idx >= 4 then Flow.bottom
  else Flow.make ~secrecy:(Label.singleton snapshot_tags.(idx)) ()

let build_fs program =
  let fs = Fs.create () in
  let dirs = ref [ "" ] in
  List.iter
    (fun cmd ->
      match cmd with
      | `Mkdir (n, tag_idx) ->
          let parent = List.hd !dirs in
          let path = Printf.sprintf "%s/d%d" parent n in
          (match Fs.mkdir fs path ~labels:(label_for tag_idx) with
          | Ok () -> dirs := path :: !dirs
          | Error _ -> ())
      | `Create (n, tag_idx, data) ->
          let parent = List.hd !dirs in
          ignore
            (Fs.create_file fs
               (Printf.sprintf "%s/f%d" parent n)
               ~labels:(label_for tag_idx) ~data)
      | `Write n ->
          let parent = List.hd !dirs in
          ignore (Fs.write fs (Printf.sprintf "%s/f%d" parent n) ~data:"w"))
    program;
  fs

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot/restore is the identity" ~count:200
    arb_fs_program (fun program ->
      let fs = build_fs program in
      let image = Fs.snapshot fs in
      let copy = Fs.create () in
      match Fs.restore_into copy image with
      | Error _ -> false
      | Ok () -> Fs.snapshot copy = image && Fs.total_files copy = Fs.total_files fs)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_path_helpers; prop_snapshot_roundtrip ]

(* ---- rename ---- *)

let test_rename_mechanics () =
  let kernel = Kernel.create () in
  run_value kernel ~name:"renamer" (fun ctx ->
      ok (Syscall.mkdir ctx "/a" ~labels:Flow.bottom);
      ok (Syscall.mkdir ctx "/b" ~labels:Flow.bottom);
      ok (Syscall.create_file ctx "/a/f" ~labels:Flow.bottom ~data:"payload");
      ok (Syscall.rename ctx ~src:"/a/f" ~dst:"/b/g");
      check bool_c "gone from src" false (Syscall.file_exists ctx "/a/f");
      check string_c "content moved" "payload" (ok (Syscall.read_file ctx "/b/g"));
      (* directory move carries the subtree *)
      ok (Syscall.create_file ctx "/a/inner" ~labels:Flow.bottom ~data:"x");
      ok (Syscall.rename ctx ~src:"/a" ~dst:"/b/sub");
      check string_c "subtree moved" "x" (ok (Syscall.read_file ctx "/b/sub/inner"));
      (* error cases *)
      (match Syscall.rename ctx ~src:"/b" ~dst:"/b/sub/loop" with
      | Error (Os_error.Invalid _) -> ()
      | Ok () | Error _ -> Alcotest.fail "moved a dir into itself");
      (match Syscall.rename ctx ~src:"/nope" ~dst:"/b/x" with
      | Error (Os_error.Not_found _) -> ()
      | Ok () | Error _ -> Alcotest.fail "renamed a ghost");
      match Syscall.rename ctx ~src:"/b/g" ~dst:"/b/sub/inner" with
      | Error (Os_error.Already_exists _) -> ()
      | Ok () | Error _ -> Alcotest.fail "clobbered an existing node")

let test_rename_respects_write_protection () =
  let kernel = Kernel.create () in
  let wtag = Tag.fresh ~name:"rn.w" Tag.Integrity in
  let protected_labels = Flow.make ~integrity:(Label.singleton wtag) () in
  run_value kernel
    ~labels:protected_labels
    ~caps:(Capability.Set.grant_dual wtag Capability.Set.empty)
    ~name:"owner" (fun ctx ->
      ok (Syscall.create_file ctx "/precious" ~labels:protected_labels ~data:"d"));
  (* a stranger cannot move the protected file *)
  run_value kernel ~name:"mover" (fun ctx ->
      expect_denied "rename protected"
        (Syscall.rename ctx ~src:"/precious" ~dst:"/stolen"));
  (* a tainted process cannot move files between clean directories *)
  let s = Tag.fresh ~name:"rn.s" Tag.Secrecy in
  run_value kernel ~name:"setup" (fun ctx ->
      ok (Syscall.create_file ctx "/plain" ~labels:Flow.bottom ~data:"d"));
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton s) ())
    ~name:"tainted-mover" (fun ctx ->
      expect_denied "tainted rename"
        (Syscall.rename ctx ~src:"/plain" ~dst:"/moved"))

let suite =
  suite
  @ [
      Alcotest.test_case "rename mechanics" `Quick test_rename_mechanics;
      Alcotest.test_case "rename respects write protection" `Quick
        test_rename_respects_write_protection;
    ]

(* ---- more kernel/fs coverage ---- *)

let test_path_taint_accumulates () =
  let kernel = Kernel.create () in
  let t1 = Tag.fresh ~name:"pt1" Tag.Secrecy in
  let t2 = Tag.fresh ~name:"pt2" Tag.Secrecy in
  run_value kernel ~name:"builder" (fun ctx ->
      ok (Syscall.mkdir ctx "/d1" ~labels:(Flow.make ~secrecy:(Label.singleton t1) ()));
      ok
        (Syscall.add_taint ctx (Label.singleton t1));
      ok
        (Syscall.mkdir ctx "/d1/d2"
           ~labels:(Flow.make ~secrecy:(Label.of_list [ t1; t2 ]) ()));
      ok (Syscall.add_taint ctx (Label.singleton t2));
      ok
        (Syscall.create_file ctx "/d1/d2/f"
           ~labels:(Flow.make ~secrecy:(Label.of_list [ t1; t2 ]) ())
           ~data:"x"));
  let fs = Kernel.fs kernel in
  match Fs.path_taint fs "/d1/d2/f" with
  | Ok taint ->
      check bool_c "t1 from d1" true (Label.mem t1 taint.Flow.secrecy);
      check bool_c "t2 from d2" true (Label.mem t2 taint.Flow.secrecy)
  | Error e -> fail_err e

let test_audit_clear_and_length () =
  let log = Audit.create ~capacity:16 in
  check int_c "empty" 0 (Audit.length log);
  Audit.record log ~tick:1 ~pid:7 (Audit.App_note "x");
  Audit.record log ~tick:2 ~pid:7 (Audit.App_note "y");
  check int_c "two" 2 (Audit.length log);
  (match Audit.entries log with
  | [ a; b ] ->
      check bool_c "ordered oldest first" true (a.Audit.seq < b.Audit.seq)
  | _ -> Alcotest.fail "expected two entries");
  check int_c "for_pid" 2 (List.length (Audit.for_pid log 7));
  check int_c "other pid" 0 (List.length (Audit.for_pid log 8))

let test_quota_kinds_render () =
  List.iter
    (fun kind -> check bool_c "nonempty" true (Resource.kind_to_string kind <> ""))
    [
      Resource.Cpu; Resource.Memory; Resource.Disk; Resource.Messages;
      Resource.Files; Resource.Processes;
    ];
  let u = Resource.fresh_usage () in
  check bool_c "usage renders" true
    (String.length (Format.asprintf "%a" Resource.pp_usage u) > 0)

let test_spawn_charges_process_quota () =
  let kernel = Kernel.create () in
  let proc, _ =
    run kernel
      ~limits:(Resource.make_limits ~processes:2 ())
      ~name:"forker"
      (fun ctx ->
        ignore (ok (Syscall.spawn ctx ~name:"c1" (fun _ -> ())));
        ignore (ok (Syscall.spawn ctx ~name:"c2" (fun _ -> ())));
        (* the third child exceeds the quota *)
        match Syscall.spawn ctx ~name:"c3" (fun _ -> ()) with
        | Error (Os_error.Quota_exceeded Resource.Processes) -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected process quota")
  in
  check bool_c "parent survived (spawn returns the error)" true
    (proc.Proc.state = Proc.Exited)

let test_proc_pp_and_states () =
  let kernel = Kernel.create () in
  let proc = spawn_dormant kernel ~name:"ppx" () in
  check bool_c "pp mentions name" true
    (let s = Format.asprintf "%a" Proc.pp proc in
     String.length s > 0);
  check bool_c "runnable alive" true (Proc.is_alive proc);
  Proc.kill proc ~reason:"bye";
  check bool_c "killed dead" false (Proc.is_alive proc);
  check bool_c "state renders" true
    (String.length (Format.asprintf "%a" Proc.pp_state proc.Proc.state) > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "path taint accumulates" `Quick test_path_taint_accumulates;
      Alcotest.test_case "audit clear and length" `Quick test_audit_clear_and_length;
      Alcotest.test_case "quota kinds render" `Quick test_quota_kinds_render;
      Alcotest.test_case "spawn charges process quota" `Quick
        test_spawn_charges_process_quota;
      Alcotest.test_case "proc pp and states" `Quick test_proc_pp_and_states;
    ]

(* ---- service with restricted mail ---- *)

let test_service_drops_unabsorbable_mail () =
  let kernel = Kernel.create () in
  let locked = Tag.fresh ~name:"svc.locked" ~restricted:true Tag.Secrecy in
  let handled = ref 0 in
  (* the service has no t+ for the restricted tag: such messages are
     dropped at recv, and the service keeps running *)
  let service =
    ok
      (Service.create kernel ~name:"plain-service"
         ~owner:(Kernel.kernel_principal kernel)
         (fun _ _ -> incr handled))
  in
  (* a privileged sender whose label carries the restricted tag; it
     needs t- at the endpoint... instead, use a dormant tainted sender
     targeting a *tainted* service — here we check the drop path by
     sending from an equally-labeled proc to the bottom service using
     use_caps (sheds the tag) vs a raw kernel enqueue *)
  let tainted = Flow.make ~secrecy:(Label.singleton locked) () in
  let sender = spawn_dormant kernel ~labels:tainted
      ~caps:(Capability.Set.grant_dual locked Capability.Set.empty)
      ~name:"privileged-sender" () in
  let ctx = { Kernel.kernel; proc = sender } in
  (* bypass flow at send by exercising caps; message arrives clean *)
  ok (Syscall.send ctx ~to_:(Service.pid service) ~use_caps:true "fine");
  check int_c "clean message handled" 1 (ok (Service.deliver_pending service));
  (* force an unabsorbable message into the mailbox (kernel-level,
     simulating a pre-restriction enqueue) *)
  Queue.add
    {
      Proc.sender = sender.Proc.pid;
      msg_labels = tainted;
      body = "hot";
      granted = Capability.Set.empty;
    }
    (Service.proc service).Proc.mailbox;
  check int_c "hot message dropped, none handled" 0
    (ok (Service.deliver_pending service));
  check bool_c "service alive" true (Service.is_alive service);
  check int_c "lifetime total" 1 (Service.handled service)

let suite =
  suite
  @ [
      Alcotest.test_case "service drops unabsorbable mail" `Quick
        test_service_drops_unabsorbable_mail;
    ]

(* ---- final edge batch ---- *)

let test_append_respects_write_protection () =
  let kernel = Kernel.create () in
  let wtag = Tag.fresh ~name:"ap.w" Tag.Integrity in
  let labels = Flow.make ~integrity:(Label.singleton wtag) () in
  run_value kernel ~labels
    ~caps:(Capability.Set.grant_dual wtag Capability.Set.empty)
    ~name:"owner" (fun ctx ->
      ok (Syscall.create_file ctx "/log" ~labels ~data:"a"));
  run_value kernel ~name:"appender" (fun ctx ->
      expect_denied "append" (Syscall.append_file ctx "/log" ~data:"b"));
  run_value kernel
    ~caps:(Capability.Set.of_list [ Capability.make wtag Capability.Plus ])
    ~name:"delegate" (fun ctx ->
      ok (Syscall.endorse_self ctx wtag);
      ok (Syscall.append_file ctx "/log" ~data:"b");
      check string_c "appended" "ab" (ok (Syscall.read_file_taint ctx "/log")))

let test_set_labels_drop_needs_minus () =
  let kernel = Kernel.create () in
  let s = Tag.fresh ~name:"sl.s" Tag.Secrecy in
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton s) ())
    ~name:"stuck" (fun ctx ->
      expect_denied "drop via set_labels" (Syscall.set_labels ctx Flow.bottom));
  run_value kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton s) ())
    ~caps:(Capability.Set.of_list [ Capability.make s Capability.Minus ])
    ~name:"free" (fun ctx -> ok (Syscall.set_labels ctx Flow.bottom))

let test_fs_missing_parents () =
  let kernel = Kernel.create () in
  run_value kernel ~name:"lost" (fun ctx ->
      (match Syscall.mkdir ctx "/no/such/parent" ~labels:Flow.bottom with
      | Error (Os_error.Not_found _) -> ()
      | Ok () | Error _ -> Alcotest.fail "mkdir into void");
      (match Syscall.create_file ctx "/nope/f" ~labels:Flow.bottom ~data:"" with
      | Error (Os_error.Not_found _) -> ()
      | Ok () | Error _ -> Alcotest.fail "create into void");
      ok (Syscall.create_file ctx "/plain" ~labels:Flow.bottom ~data:"");
      match Syscall.readdir ctx "/plain" with
      | Error (Os_error.Not_a_directory _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "readdir of a file")

let suite =
  suite
  @ [
      Alcotest.test_case "append respects write protection" `Quick
        test_append_respects_write_protection;
      Alcotest.test_case "set_labels drop needs minus" `Quick
        test_set_labels_drop_needs_minus;
      Alcotest.test_case "fs missing parents" `Quick test_fs_missing_parents;
    ]

let test_service_pump_multiple () =
  let kernel = Kernel.create () in
  let counts = Array.make 2 0 in
  let make i =
    ok
      (Service.create kernel
         ~name:(Printf.sprintf "svc%d" i)
         ~owner:(Kernel.kernel_principal kernel)
         (fun _ _ -> counts.(i) <- counts.(i) + 1))
  in
  let s0 = make 0 and s1 = make 1 in
  run_value kernel ~name:"feeder" (fun ctx ->
      ok (Syscall.send ctx ~to_:(Service.pid s0) "a");
      ok (Syscall.send ctx ~to_:(Service.pid s1) "b");
      ok (Syscall.send ctx ~to_:(Service.pid s1) "c"));
  check int_c "pump total" 3 (ok (Service.pump [ s0; s1 ]));
  check int_c "s0" 1 counts.(0);
  check int_c "s1" 2 counts.(1)

let suite =
  suite
  @ [ Alcotest.test_case "service pump multiple" `Quick test_service_pump_multiple ]

(* Exact retention: with capacity [c], after [n] records the log holds
   seqs [n - min n c + 1 .. n], oldest first, each with its own tick,
   pid and event. Capacities above 256 also fill through the columns'
   growth. *)
let test_audit_capacity () =
  List.iter
    (fun (c, n) ->
      let log = Audit.create ~capacity:c in
      for i = 1 to n do
        Audit.record log ~tick:(100 + i) ~pid:(i mod 7)
          (Audit.App_note (string_of_int i))
      done;
      let name what = Printf.sprintf "c=%d n=%d: %s" c n what in
      let kept = min n c in
      check int_c (name "length") kept (Audit.length log);
      check int_c (name "evicted") (max 0 (n - c)) (Audit.evicted log);
      let expected = List.init kept (fun j -> n - kept + 1 + j) in
      check
        (Alcotest.list
           (Alcotest.pair (Alcotest.triple int_c int_c int_c) string_c))
        (name "seq, tick, pid and event, oldest first")
        (List.map (fun s -> ((s, 100 + s, s mod 7), string_of_int s)) expected)
        (List.map
           (fun e ->
             ( (e.Audit.seq, e.Audit.tick, e.Audit.pid),
               match e.Audit.event with Audit.App_note s -> s | _ -> "?" ))
           (Audit.entries log)))
    [ (10, 0); (10, 3); (10, 10); (10, 11); (10, 25); (10, 20); (10, 21);
      (1, 1); (1, 5); (3, 100); (600, 255); (600, 257); (600, 600);
      (600, 1500); (Kernel.default_audit_capacity, 150_000) ];
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Audit.create: capacity must be positive") (fun () ->
      ignore (Audit.create ~capacity:0))

(* ---- audit log against the list model in audit_ref.ml ---- *)

let audit_denial = Error (Flow.Secrecy_violation Label.empty)

(* Allowed and denied decisions of three kinds, and kinds that never
   deny; each call builds a fresh event, so the ring and the model
   must hand back the very value recorded. *)
let audit_events =
  [|
    (fun i -> Audit.App_note (string_of_int i));
    (fun _ ->
      Audit.Flow_checked
        { op = "fs.read"; src = Flow.bottom; dst = Flow.bottom;
          decision = Ok (); subject = Audit.File "/f" });
    (fun _ ->
      Audit.Flow_checked
        { op = "fs.write"; src = Flow.bottom; dst = Flow.bottom;
          decision = audit_denial; subject = Audit.Peer 2 });
    (fun _ ->
      Audit.Export_attempted
        { destination = "browser"; labels = Flow.bottom;
          decision = audit_denial });
    (fun _ ->
      Audit.Label_changed
        { old_labels = Flow.bottom; new_labels = Flow.bottom;
          decision = Ok () });
    (fun i -> Audit.Spawned { child = i; name = "c"; labels = Flow.bottom });
  |]

let audit_kinds =
  "killed"
  :: Array.to_list
       (Array.map (fun make -> Audit.event_kind (make 0)) audit_events)

let gen_audit_case =
  QCheck.Gen.(
    (* tick, pid, index into [audit_events] *)
    let op = triple (0 -- 50) (0 -- 3) (0 -- (Array.length audit_events - 1)) in
    (* seq bounds reach below the first seq, into the evicted prefix
       and past the newest entry *)
    let bound = -2 -- 45 in
    let filters = quad (0 -- 3) (oneofl audit_kinds) bound bound in
    triple (1 -- 8) (list_size (0 -- 40) op) (list_size (1 -- 3) filters))

let print_audit_case (capacity, ops, _) =
  Printf.sprintf "capacity=%d ops=[%s]" capacity
    (String.concat "; "
       (List.map
          (fun (tick, pid, ev) -> Printf.sprintf "R(%d,%d,%d)" tick pid ev)
          ops))

(* Two entry lists agree when seq, tick and pid match and each entry
   carries the very event value that was recorded. *)
let same_entries (a : Audit.entry list) (b : Audit.entry list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Audit.entry) (y : Audit.entry) ->
         x.seq = y.seq && x.tick = y.tick && x.pid = y.pid
         && x.event == y.event)
       a b

let prop_audit_matches_reference =
  QCheck.Test.make ~name:"audit ring agrees with the list model" ~count:300
    (QCheck.make ~print:print_audit_case gen_audit_case)
    (fun (capacity, ops, filters) ->
      let log = Audit.create ~capacity and model = Audit_ref.create ~capacity in
      let agree () =
        let expected = Audit_ref.entries model in
        let iterated = ref [] in
        Audit.iter log ~f:(fun e -> iterated := e :: !iterated);
        same_entries expected (Audit.entries log)
        && same_entries expected (List.rev !iterated)
        && same_entries expected
             (List.rev (Audit.fold log ~init:[] ~f:(fun acc e -> e :: acc)))
        && Audit.length log = Audit_ref.length model
        && Audit.evicted log = Audit_ref.evicted model
        && same_entries (Audit_ref.denials model) (Audit.denials log)
        && List.for_all
             (fun pid ->
               same_entries (Audit_ref.for_pid model pid)
                 (Audit.for_pid log pid))
             [ 0; 1; 2; 3 ]
        && List.for_all
             (fun (pid, kind, seq_from, seq_to) ->
               (* every subset of the five filters *)
               List.for_all
                 (fun mask ->
                   let pick bit v = if mask land bit <> 0 then Some v else None in
                   let pid = pick 1 pid and kind = pick 2 kind
                   and seq_from = pick 4 seq_from and seq_to = pick 8 seq_to
                   and denials_only = mask land 16 <> 0 in
                   same_entries
                     (Audit_ref.query model ?pid ?kind ?seq_from ?seq_to
                        ~denials_only ())
                     (Audit.query log ?pid ?kind ?seq_from ?seq_to
                        ~denials_only ()))
                 (List.init 32 Fun.id))
             filters
      in
      agree ()
      && List.for_all
           (fun (tick, pid, ev) ->
             let event = audit_events.(ev) tick in
             Audit.record log ~tick ~pid event;
             Audit_ref.record model ~tick ~pid event;
             agree ())
           ops)

(* A full log's footprint is fixed: recording another [capacity]
   events replaces the retained ones and leaves the log exactly as
   large. Each event is a fresh block of the same size. *)
let test_audit_footprint () =
  let capacity = 1000 in
  let log = Audit.create ~capacity in
  let fill () =
    for i = 1 to capacity do
      Audit.record log ~tick:i ~pid:1 (Audit.Gate_invoked { gate = "g"; child = i })
    done
  in
  fill ();
  let at_capacity = Obj.reachable_words (Obj.repr log) in
  fill ();
  check int_c "words after 2 x capacity records" at_capacity
    (Obj.reachable_words (Obj.repr log));
  check int_c "length" capacity (Audit.length log);
  check int_c "evicted" capacity (Audit.evicted log)

let suite =
  suite
  @ [
      Alcotest.test_case "audit capacity" `Quick test_audit_capacity;
      QCheck_alcotest.to_alcotest prop_audit_matches_reference;
      Alcotest.test_case "audit footprint is fixed at capacity" `Quick
        test_audit_footprint;
    ]

let test_gate_registry_listing () =
  let kernel = Kernel.create () in
  check bool_c "empty" true (Kernel.gate_names kernel = []);
  Kernel.register_gate kernel ~name:"b-gate"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:Capability.Set.empty ~entry:(fun _ _ -> ());
  Kernel.register_gate kernel ~name:"a-gate"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:Capability.Set.empty ~entry:(fun _ _ -> ());
  check (Alcotest.list string_c) "sorted" [ "a-gate"; "b-gate" ]
    (Kernel.gate_names kernel);
  check bool_c "exists" true (Kernel.gate_exists kernel "a-gate");
  check bool_c "not exists" false (Kernel.gate_exists kernel "zz");
  (* re-registration overwrites *)
  let hit = ref false in
  Kernel.register_gate kernel ~name:"a-gate"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:Capability.Set.empty ~entry:(fun _ _ -> hit := true);
  run_value kernel ~name:"caller" (fun ctx ->
      ignore (ok (Syscall.invoke_gate ctx "a-gate" ~arg:"")));
  check bool_c "new entry ran" true !hit

let suite =
  suite
  @ [ Alcotest.test_case "gate registry listing" `Quick test_gate_registry_listing ]

(* qcheck: the syscall label-change conventions as a decision table *)
let prop_set_labels_matches_conventions =
  let conv_tags =
    [|
      Tag.fresh ~name:"cv.s1" Tag.Secrecy;
      Tag.fresh ~name:"cv.s2" ~restricted:true Tag.Secrecy;
      Tag.fresh ~name:"cv.w1" Tag.Integrity;
    |]
  in
  let arb =
    QCheck.make
      ~print:(fun (a, b, c) -> Printf.sprintf "old=%d new=%d caps=%d" a b c)
      QCheck.Gen.(tup3 (0 -- 7) (0 -- 7) (0 -- 7))
  in
  QCheck.Test.make ~name:"set_labels agrees with the stated conventions"
    ~count:200 arb (fun (old_mask, new_mask, caps_mask) ->
      let subset mask =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
          (Array.to_list conv_tags)
      in
      let to_labels tags =
        Flow.make
          ~secrecy:(Label.of_list (List.filter (fun t -> Tag.kind t = Tag.Secrecy) tags))
          ~integrity:(Label.of_list (List.filter (fun t -> Tag.kind t = Tag.Integrity) tags))
          ()
      in
      let old_labels = to_labels (subset old_mask) in
      let new_labels = to_labels (subset new_mask) in
      let caps =
        List.fold_left
          (fun acc t -> Capability.Set.grant_dual t acc)
          Capability.Set.empty (subset caps_mask)
      in
      let kernel = Kernel.create () in
      let expected =
        (* drops of secrecy need t-; adds of restricted secrecy need
           t+; adds of integrity need t+; everything else free *)
        let can_drop t = Capability.Set.can_drop t caps in
        let can_add t = Capability.Set.can_add t caps in
        Label.for_all can_drop
          (Label.diff old_labels.Flow.secrecy new_labels.Flow.secrecy)
        && Label.for_all
             (fun t -> (not (Tag.restricted t)) || can_add t)
             (Label.diff new_labels.Flow.secrecy old_labels.Flow.secrecy)
        && Label.for_all can_add
             (Label.diff new_labels.Flow.integrity old_labels.Flow.integrity)
      in
      let actual = ref false in
      (match
         Kernel.spawn kernel ~name:"conv"
           ~owner:(Kernel.kernel_principal kernel)
           ~labels:old_labels ~caps ~limits:Resource.unlimited
           (fun ctx -> actual := Syscall.set_labels ctx new_labels = Ok ())
       with
      | Ok proc -> Kernel.run_proc kernel proc
      | Error _ -> ());
      expected = !actual)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_set_labels_matches_conventions ]

let test_fs_more_edges () =
  let fs = Fs.create () in
  (match Fs.set_labels fs "/ghost" ~labels:Flow.bottom with
  | Error (Os_error.Not_found _) -> ()
  | Ok () | Error _ -> Alcotest.fail "relabeled a ghost");
  (match Fs.parent_labels fs "/" with
  | Ok labels -> check bool_c "root parent is root" true (Label.is_empty labels.Flow.secrecy)
  | Error _ -> Alcotest.fail "root parent");
  (* snapshot with an empty directory survives *)
  ok (Fs.mkdir fs "/empty" ~labels:Flow.bottom);
  let image = Fs.snapshot fs in
  let fresh = Fs.create () in
  ok (Fs.restore_into fresh image);
  (match Fs.readdir fresh "/empty" with
  | Ok ([], _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty dir lost")

let suite =
  suite @ [ Alcotest.test_case "fs more edges" `Quick test_fs_more_edges ]

(* ---- syscall audit ---- *)

let test_syscall_audit_batched () =
  (* a denied read lands its audit events by the time dispatch exits *)
  let kernel = Kernel.create () in
  let t = Tag.fresh ~name:"batch.secret" Tag.Secrecy in
  let labels = Flow.make ~secrecy:(Label.singleton t) () in
  run_value kernel ~name:"writer" (fun ctx ->
      ok (Syscall.create_file ctx "/secret.txt" ~data:"s" ~labels))
  |> ignore;
  (match run kernel ~name:"reader" (fun ctx ->
       Syscall.read_file ctx "/secret.txt")
   with
  | _, Some (Error _) -> ()
  | _ -> Alcotest.fail "expected denial");
  check bool_c "denial audited after dispatch" true
    (List.exists
       (fun (e : Audit.entry) -> Audit.is_denial e)
       (Audit.entries (Kernel.audit kernel)))

let suite =
  suite
  @ [
      Alcotest.test_case "syscall audit batched" `Quick
        test_syscall_audit_batched;
    ]

(* ---- per-kernel state: Kernel.Local ---- *)

let test_local_one_value_per_slot_and_kernel () =
  let slot = Kernel.Local.create (fun () -> ref 0) in
  let a = Kernel.create () and b = Kernel.create () in
  let va = Kernel.Local.get slot a in
  va := 1;
  check bool_c "same value on a second get" true (Kernel.Local.get slot a == va);
  check bool_c "another kernel, another value" false
    (Kernel.Local.get slot b == va);
  check int_c "made fresh" 0 !(Kernel.Local.get slot b);
  let other = Kernel.Local.create (fun () -> ref 0) in
  check bool_c "another slot, another value" false
    (Kernel.Local.get other a == va)

(* Module-level, like the slots in lib/; each value points back at its
   kernel, as a Service.t does. *)
let back_pointers = Kernel.Local.create (fun () -> ref None)

let[@inline never] fill_for_dropped_kernel weak =
  let kernel = Kernel.create () in
  let v = Kernel.Local.get back_pointers kernel in
  v := Some kernel;
  Weak.set weak 0 (Some v)

let test_local_freed_with_kernel () =
  let weak = Weak.create 1 in
  fill_for_dropped_kernel weak;
  Gc.full_major ();
  check bool_c "value collected with its kernel" false (Weak.check weak 0)

let suite =
  suite
  @ [
      Alcotest.test_case "local: one value per slot and kernel" `Quick
        test_local_one_value_per_slot_and_kernel;
      Alcotest.test_case "local: freed with its kernel" `Quick
        test_local_freed_with_kernel;
    ]

(* The repository's benchmark: one named workload per invocation, run as a
   closed loop of one client with no think time, in one process on one
   domain. See README.md for the workloads, the metrics and how to read
   them.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--trace-out FILE]
          main.exe --noise-loop        (times a fixed integer loop)

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer split. *)

module Tree = Xmlac_xml.Tree
module Writer = Xmlac_xml.Writer
module Layout = Xmlac_skip_index.Layout
module Encoder = Xmlac_skip_index.Encoder
module Decoder = Xmlac_skip_index.Decoder
module Update = Xmlac_skip_index.Update
module C = Xmlac_crypto.Secure_container
module Input = Xmlac_core.Input
module Evaluator = Xmlac_core.Evaluator
module Oracle = Xmlac_core.Oracle
module Policy = Xmlac_core.Policy
module Channel = Xmlac_soe.Channel
module Remote = Xmlac_soe.Remote
module Session = Xmlac_soe.Session
module Cost_model = Xmlac_soe.Cost_model
module Publisher = Xmlac_dissem.Publisher
module Server = Xmlac_wire.Server
module Mirror = Xmlac_wire.Mirror
module Wstats = Xmlac_wire.Stats
module W = Xmlac_workload

(* ---- command line --------------------------------------------------- *)

type workload = View_selective | View_full | Wire_sync

let workloads =
  [
    ("view-selective", View_selective);
    ("view-full", View_full);
    ("wire-sync", Wire_sync);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (view-selective|view-full|wire-sync) --seed \
     N --seconds S --trace 0|1 [--trace-out FILE]\n\
    \       main.exe --noise-loop";
  exit 2

type args = {
  workload : workload;
  wname : string;
  seed : int;
  seconds : float;
  traced : bool;
  trace_out : string;
}

let parse_args () =
  let kv = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace kv k v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out" ])
      then usage ())
    kv;
  let get k = match Hashtbl.find_opt kv k with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wname = get "--workload" in
  let workload =
    match List.assoc_opt wname workloads with Some w -> w | None -> usage ()
  in
  let traced =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let seconds = int_of "--seconds" in
  if seconds < 1 then usage ();
  {
    workload;
    wname;
    seed = int_of "--seed";
    seconds = float_of_int seconds;
    traced;
    trace_out =
      (match Hashtbl.find_opt kv "--trace-out" with
      | Some f -> f
      | None -> Filename.concat "perfbench/out" (wname ^ ".trace.jsonl"));
  }

(* ---- measurement helpers -------------------------------------------- *)

let now_ns = Tracer.now_ns
let words = Tracer.words
let traced = ref false
let span layer f = if !traced then Tracer.span layer f else f ()

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let ms_of_ns ns = float_of_int ns /. 1e6

(* Named per-round tallies for the per-layer metrics. *)
let tally : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace tally name
    (v +. Option.value ~default:0. (Hashtbl.find_opt tally name))

let kb n = float_of_int n /. 1024.

(* ---- inputs ----------------------------------------------------------- *)

(* Everything the program receives is made here, from the seed: the XML
   text, the key, and (wire-sync) the text node the publisher rewrites. *)

let key = Xmlac_crypto.Des.Triple.key_of_string "perfbench-document-key24"
let master = "perfbench-publisher-master"
let full_policy = Policy.of_specs [ ("ALL", Xmlac_core.Rule.Permit, "/*") ]

let scheme = function
  | View_selective | Wire_sync -> C.Ecb_mht
  | View_full -> C.Cbc_shac

(* A fixed folder count rather than [generate_sized]: that sizes from a
   20-folder sample and misses its target by up to ~15% from seed to
   seed, while the average over hundreds of folders keeps the text within
   ~2% of 1.5 MB (780 folders) or 3 MB (1560). *)
let xml_text workload seed =
  let folders =
    match workload with View_selective | View_full -> 780 | Wire_sync -> 1560
  in
  Writer.tree_to_string
    (W.Hospital.generate ~config:{ W.Hospital.default_config with folders } ~seed ())

(* the SSN text of one folder chosen by the seed, and a same-length
   replacement: Folder / Admin / SSN / text *)
let edit_of_seed seed tree =
  let folders = List.length (Tree.children tree) in
  let rng = W.Prng.make ~seed:(seed lxor 0x5eed) in
  let folder = W.Prng.int rng folders in
  let path = [ folder; 0; 0; 0 ] in
  let rec at t = function
    | [] -> t
    | i :: rest -> at (List.nth (Tree.children t) i) rest
  in
  let old_text = Tree.text_content (at tree path) in
  let rec fresh () =
    let s =
      String.init (String.length old_text) (fun _ ->
          Char.chr (48 + W.Prng.int rng 10))
    in
    if s = old_text then fresh () else s
  in
  (path, old_text, fresh ())

let serialize = function
  | None -> ""
  | Some v -> Writer.tree_to_string ~indent:true v

let session_config workload = Session.default_config ~scheme:(scheme workload) ()

(* what a profile's view must print, and the oracle lower bound on its
   modelled card time, both from the DOM oracle over the same tree; the
   encoded size is what [Session.authorized_encoded_bytes] computes, taken
   from the one oracle view instead of a second oracle run *)
type expected = { text : string; lwb_s : float }

let expect workload policy tree =
  let view = Oracle.authorized_view policy tree in
  let authorized_bytes =
    match view with
    | None -> 0
    | Some v -> String.length (Encoder.encode ~layout:Layout.Tcsbr v)
  in
  {
    text = serialize view;
    lwb_s =
      (Session.lwb (session_config workload) ~authorized_bytes)
        .Cost_model.total_s;
  }

(* ---- the view operation ---------------------------------------------- *)

(* set only in the heap-measuring child (see [heap_peak]): sampled before
   every read of a view's byte source *)
let heap_watch : (unit -> unit) option ref = ref None

let watched (s : Decoder.source) =
  match !heap_watch with
  | None -> s
  | Some sample ->
      { s with read = (fun ~pos ~len -> sample (); s.read ~pos ~len) }

type target = Local of C.t | Over_wire of (unit -> Xmlac_wire.Transport.t)

type view_result = {
  out : string;
  counters : Channel.counters;
  stats : Evaluator.stats;
  dstats : Decoder.stats;
  wire : Wstats.t option;
}

(* A view composed the way [xacml view] composes it: channel (local or
   remote) source, Skip-index decoder, streaming evaluator, and the view
   serialized as the CLI prints it. Traced, the same calls run through the
   wrapped closure records. *)
let view ~key ~policy target =
  let counters = Channel.fresh_counters () in
  let traced_source terminal =
    Tracer.source
      (Channel.source_of_terminal ~terminal:(Tracer.terminal terminal) ~key
         counters)
  in
  let remote, source =
    match target with
    | Local container ->
        ( None,
          if !traced then traced_source (Channel.local_terminal container)
          else Channel.source ~container ~key counters )
    | Over_wire connect ->
        let r = span Terminal (fun () -> Remote.connect connect) in
        ( Some r,
          if !traced then traced_source (Remote.terminal r)
          else Remote.source r ~key counters )
  in
  let source = watched source in
  let decoder = span Decoder (fun () -> Decoder.of_source source) in
  let input = Input.of_decoder decoder in
  let input = if !traced then Tracer.input input else input in
  let on_deliver = if !traced then Some Tracer.on_deliver else None in
  let result =
    span Evaluator (fun () -> Evaluator.run ?on_deliver ~policy input)
  in
  let out = span Emit (fun () -> serialize (Evaluator.view_tree result)) in
  let wire =
    Option.map
      (fun r ->
        span Terminal (fun () -> Remote.close r);
        Remote.wire_stats r)
      remote
  in
  {
    out;
    counters;
    stats = result.Evaluator.stats;
    dstats = Decoder.stats decoder;
    wire;
  }

let card (v : view_result) =
  Cost_model.breakdown
    (Cost_model.of_context Cost_model.Hardware)
    ~bytes_in:v.counters.Channel.bytes_to_soe
    ~bytes_decrypted:v.counters.Channel.bytes_decrypted
    ~bytes_hashed:v.counters.Channel.bytes_hashed
    ~transitions:v.stats.Evaluator.transitions
    ~events:v.stats.Evaluator.events_in

(* the counters a view must reproduce exactly in every round, traced or
   not (its output is checked against the oracle separately) *)
let view_signature (v : view_result) =
  let c = v.counters and s = v.stats and d = v.dstats in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d|%d/%d/%d|%d/%d/%d|%s"
    c.Channel.bytes_to_soe c.bytes_decrypted c.bytes_hashed c.blocks_decrypted
    c.hashes_verified c.fragment_fetches c.chunk_fetches s.Evaluator.events_in
    s.transitions s.events_out d.Decoder.events_decoded d.bytes_skipped
    d.readback_bytes
    (match v.wire with
    | Some w -> Printf.sprintf "%d/%d" w.Wstats.requests w.payload_bytes
    | None -> "-")

let tally_view (v : view_result) (b : Cost_model.breakdown) =
  let c = v.counters in
  add "channel.soe_kb" (kb c.Channel.bytes_to_soe);
  add "channel.decrypted_kb" (kb c.bytes_decrypted);
  add "channel.hashed_kb" (kb c.bytes_hashed);
  add "channel.cache_hits" (float_of_int c.cache.hits);
  add "channel.cache_lookups" (float_of_int (c.cache.hits + c.cache.misses));
  add "decoder.events" (float_of_int v.dstats.Decoder.events_decoded);
  add "decoder.skipped_kb" (kb v.dstats.bytes_skipped);
  add "evaluator.transitions" (float_of_int v.stats.Evaluator.transitions);
  add "emit.out_kb" (kb (String.length v.out));
  add "card.comm_s" b.Cost_model.communication_s;
  add "card.decrypt_s" b.decryption_s;
  add "card.ac_s" b.access_control_s;
  add "card.integrity_s" b.integrity_s;
  Option.iter
    (fun w ->
      add "wire.round_trips" (float_of_int w.Wstats.requests);
      add "wire.kb" (kb (w.bytes_sent + w.bytes_received)))
    v.wire

(* ---- rounds ----------------------------------------------------------- *)

(* Wall time and minor words of the current round's timed calls. *)
let round_ns = ref 0
let round_words = ref 0

let timed f =
  let w0 = words () in
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    let w1 = words () in
    round_ns := !round_ns + (t1 - t0);
    round_words := !round_words + (w1 - w0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* One operation of a round: it runs its call under [timed], then checks
   the outputs untimed. It returns its deterministic signature, the
   modelled card time it adds to the round, and whether every check
   passed. *)
type op = { label : string; run : unit -> string * float * bool }

type round = {
  ns : int;  (** wall time of the round's timed calls *)
  words : int;  (** minor words those calls allocated *)
  card_s : float;
  sigs : string list;  (** per operation, "" when it failed *)
  failed : int;
  layers : Tracer.totals;  (** self time/words per layer (traced rounds) *)
  tallies : (string * float) list;
}

let spans : string list ref = ref []

let record_spans ~index label (d : Tracer.totals) =
  Array.iteri
    (fun i layer ->
      if d.calls.(i) > 0 then
        spans :=
          Printf.sprintf
            {|{"round":%d,"op":"%s","layer":"%s","self_ms":%.6f,"kwords":%.3f,"calls":%d}|}
            index label (Tracer.name layer) (ms_of_ns d.ns.(i))
            (float_of_int d.w.(i) /. 1e3)
            d.calls.(i)
          :: !spans)
    Tracer.all

let run_round ~index ops =
  Hashtbl.reset tally;
  round_ns := 0;
  round_words := 0;
  let card_s = ref 0. and failed = ref 0 in
  let before = Tracer.snapshot () in
  let sigs =
    List.map
      (fun o ->
        let l0 = Tracer.snapshot () in
        let r = try Ok (o.run ()) with e -> Error e in
        if !traced then record_spans ~index o.label (Tracer.diff (Tracer.snapshot ()) l0);
        match r with
        | Ok (s, c, true) ->
            card_s := !card_s +. c;
            s
        | Ok (_, _, false) ->
            Printf.eprintf "perfbench: round %d: %s: output check failed\n%!"
              index o.label;
            incr failed;
            ""
        | Error e ->
            Printf.eprintf "perfbench: round %d: %s raised %s\n%!" index o.label
              (Printexc.to_string e);
            incr failed;
            "")
      ops
  in
  {
    ns = !round_ns;
    words = !round_words;
    card_s = !card_s;
    sigs;
    failed = !failed;
    layers = Tracer.diff (Tracer.snapshot ()) before;
    tallies = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [];
  }

(* A checked view operation: the output equals the oracle's, the modelled
   card time is at least the oracle lower bound, and over the wire the
   payload bytes equal what the channel charged. *)
let check_view (v : view_result) (e : expected) =
  let b = card v in
  let wire_ok =
    match v.wire with
    | None -> true
    | Some w -> w.Wstats.payload_bytes = v.counters.Channel.bytes_to_soe
  in
  tally_view v b;
  ( view_signature v,
    b.Cost_model.total_s,
    v.out = e.text && b.Cost_model.total_s >= e.lwb_s && wire_ok )

(* ---- set-up ----------------------------------------------------------- *)

(* the dissemination side of wire-sync: publisher, origin terminal and
   the mirror syncing from it *)
type dissem = { pub : Publisher.t; server : Server.t; mirror : Mirror.t }

type published = {
  tree : Tree.t;
  encoded : string;
  container : C.t;
  dissem : dissem option;
}

let publish_times = ref []

(* Publish the input: parse the XML text, Skip-index encode, encrypt; for
   wire-sync, also start the loopback terminal and bootstrap the mirror.
   Returns the publication and its wall time in seconds. *)
let setup workload text =
  let t0 = now_ns () in
  let tree = Tree.parse text in
  let t1 = now_ns () in
  let encoded = Encoder.encode ~layout:Layout.Tcsbr tree in
  let t2 = now_ns () in
  let scheme = scheme workload in
  let t3, p =
    match workload with
    | Wire_sync ->
        let pub = Publisher.create ~scheme ~master encoded in
        let t3 = now_ns () in
        let server = Server.make (Publisher.container pub) in
        let mirror = Mirror.fetch (Server.loopback_connector server) in
        ( t3,
          {
            tree;
            encoded;
            container = Publisher.container pub;
            dissem = Some { pub; server; mirror };
          } )
    | View_selective | View_full ->
        let container = C.encrypt ~scheme ~key encoded in
        (now_ns (), { tree; encoded; container; dissem = None })
  in
  let t4 = now_ns () in
  publish_times :=
    (ms_of_ns (t1 - t0), ms_of_ns (t2 - t1), ms_of_ns (t3 - t2))
    :: !publish_times;
  (p, float_of_int (t4 - t0) /. 1e9)

(* set-up runs this many times per run; setup_s is their median *)
let setup_reps = 5

(* ---- workloads -------------------------------------------------------- *)

let key_of (p : published) =
  match p.dissem with Some d -> Publisher.key d.pub | None -> key

let profiles_of = function
  | View_selective ->
      List.map
        (fun v -> (W.Profiles.view_name v, W.Profiles.view_policy v))
        W.Profiles.all_views
  | View_full -> [ ("ALL", full_policy) ]
  | Wire_sync ->
      [
        ("secretary", W.Profiles.secretary);
        ("doctor", W.Profiles.doctor ~user:W.Hospital.full_time_physician);
        ("researcher", W.Profiles.researcher ());
      ]

(* Two document states: the published one, and the one with the seeded
   text node rewritten. Round i moves the document from state i mod 2 to
   state (i + 1) mod 2 by a one-node edit, so every round does the same
   work and every expected output is computed before the clock starts. *)
let edits_of seed tree =
  let path, old_text, new_text = edit_of_seed seed tree in
  [| Update.Set_text (path, new_text); Update.Set_text (path, old_text) |]

(* The write half: edit in place, re-encrypt the dirty chunks, advance the
   origin terminal by the delta, sync the mirror. *)
let write_step d op =
  let payload', cost =
    span Update_encode (fun () ->
        Update.update_encoded ~layout:Layout.Tcsbr (Publisher.payload d.pub) op)
  in
  let delta, rewritten =
    span Update_reencrypt (fun () -> Publisher.update d.pub ~payload:payload')
  in
  let applied =
    span Dissem (fun () -> Server.apply_delta d.server ~id:"default" delta)
  in
  let outcome = span Dissem (fun () -> Mirror.sync d.mirror) in
  (payload', cost, rewritten, applied, outcome)

let local_rounds workload (p : published) =
  let key = key_of p and container = p.container in
  let ops =
    List.map
      (fun (name, policy) ->
        let e = expect workload policy p.tree in
        (* the permit-all view is the source document itself *)
        let e =
          if workload = View_full then
            { e with text = Writer.tree_to_string ~indent:true p.tree }
          else e
        in
        {
          label = "view:" ^ name;
          run =
            (fun () ->
              check_view
                (timed (fun () -> view ~key ~policy (Local container)))
                e);
        })
      (profiles_of workload)
  in
  fun _ -> ops

let sync_rounds seed (p : published) d =
  let key = Publisher.key d.pub in
  let edits = edits_of seed p.tree in
  let states = [| p.tree; Update.apply_to_tree p.tree edits.(0) |] in
  let encodings = Array.map (Encoder.encode ~layout:Layout.Tcsbr) states in
  let profiles = profiles_of Wire_sync in
  let expected =
    Array.map
      (fun t -> List.map (fun (n, pol) -> (n, expect Wire_sync pol t)) profiles)
      states
  in
  let connect = Server.loopback_connector d.server in
  (* the mirror's client counters are cumulative; a round charges the
     difference *)
  let mirror_seen = ref (0, 0) in
  let tally_mirror () =
    let s = Mirror.stats d.mirror in
    let trips = s.Wstats.requests and bytes = s.bytes_sent + s.bytes_received in
    let trips0, bytes0 = !mirror_seen in
    add "wire.round_trips" (float_of_int (trips - trips0));
    add "wire.kb" (kb (bytes - bytes0));
    mirror_seen := (trips, bytes)
  in
  let write i =
    {
      label = "write";
      run =
        (fun () ->
          let payload', cost, rewritten, applied, outcome =
            timed (fun () -> write_step d edits.(i mod 2))
          in
          tally_mirror ();
          let delta_bytes =
            match outcome with
            | Mirror.Applied { delta_bytes; _ } -> delta_bytes
            | Mirror.Uptodate | Mirror.Refetched _ -> 0
          in
          add "update.chunks_rewritten" (float_of_int (List.length rewritten));
          add "dissem.delta_kb" (kb delta_bytes);
          let ok =
            payload' = encodings.((i + 1) mod 2)
            && Publisher.payload d.pub = payload'
            && rewritten = cost.Update.chunks_dirty
            && Result.is_ok applied && delta_bytes > 0
            && C.decrypt_all (Mirror.container d.mirror) ~key ~verify:true
               = payload'
          in
          ( Printf.sprintf "%s:%d"
              (String.concat "," (List.map string_of_int rewritten))
              delta_bytes,
            0.,
            ok ));
    }
  in
  let read i (name, policy) =
    {
      label = "remote:" ^ name;
      run =
        (fun () ->
          let c0 = Server.cache_stats d.server in
          let v = timed (fun () -> view ~key ~policy (Over_wire connect)) in
          let c1 = Server.cache_stats d.server in
          add "wire.leaf_cache_hits" (float_of_int (c1.hits - c0.hits));
          add "wire.leaf_cache_lookups"
            (float_of_int (c1.hits + c1.misses - c0.hits - c0.misses));
          check_view v (List.assoc name expected.((i + 1) mod 2)));
    }
  in
  let setup_ok =
    p.encoded = encodings.(0)
    && C.decrypt_all (Mirror.container d.mirror) ~key ~verify:true = p.encoded
  in
  ((fun i -> write i :: List.map (read i) profiles), setup_ok)

(* Publish [setup_reps] times and build the rounds over the last
   publication. Each set-up is timed as a round is: after an untimed
   [Gc.full_major], with every earlier publication already closed and
   dropped, so that no set-up pays collection work for another's state.
   Only what the rounds' closures hold survives: the document tree is
   garbage before the first round, as it would be in a client, so the
   rounds' major collections do not mark it. Returns setup_s, the rounds,
   whether the publication decrypts back to its encoding, and a line
   describing the input. *)
let prepare workload seed text =
  let rec publish n times =
    Gc.full_major ();
    let p, t = setup workload text in
    if n = 1 then (p, t :: times)
    else (
      Option.iter (fun d -> Mirror.close d.mirror) p.dissem;
      publish (n - 1) (t :: times))
  in
  let p, times = publish setup_reps [] in
  let ops_of, rounds_ok =
    match p.dissem with
    | Some d -> sync_rounds seed p d
    | None -> (local_rounds workload p, true)
  in
  ( median times,
    ops_of,
    rounds_ok
    && C.decrypt_all p.container ~key:(key_of p) ~verify:true = p.encoded,
    Printf.sprintf
      "%d-byte Hospital text, %d-byte TCSBR encoding, %d chunks of %d bytes \
       under %s"
      (String.length text) (String.length p.encoded)
      (C.chunk_count p.container) (C.chunk_size p.container)
      (C.scheme_to_string (C.scheme p.container)) )

(* ---- heap peak ------------------------------------------------------- *)

(* The heap is measured in a forked child that holds nothing but one
   publication, so that the figure is the memory a client needs to run
   the rounds, not the benchmark's oracle outputs and earlier set-ups. The
   child publishes as the parent does, keeps only the publication's bytes,
   rebuilds the publication from them once the set-up's garbage is gone
   (the survivors of a set-up sit scattered over pools that OCaml 5.1's
   compaction cannot empty, and a round would grow into that free space
   unseen), then runs [heap_rounds] rounds of the same calls, unchecked
   (the parent checks them). It samples the major heap at the end of every
   major cycle and before every read of a view's byte source: end-of-cycle
   samples alone are few per round and land at a different phase of each
   run's major-GC rhythm. Over this fixed span of fixed work the peak
   repeats for a seed to within 1%. The peak is reported whole: the heap
   left after the rebuild varies from seed to seed by more than the rounds
   add to it, so subtracting it would measure the compactor, not the
   rounds. *)
let heap_rounds = 3

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* The round's calls over a publication rebuilt from its bytes alone. *)
let bare_round workload ~key ~edits cbytes encoded =
  let profiles = profiles_of workload in
  match edits with
  | None ->
      let container = C.of_bytes cbytes in
      fun _ ->
        List.iter
          (fun (_, policy) -> ignore (view ~key ~policy (Local container)))
          profiles
  | Some edits ->
      let pub = Publisher.create ~scheme:(scheme workload) ~master encoded in
      let server = Server.make (Publisher.container pub) in
      let connect = Server.loopback_connector server in
      let mirror = Mirror.of_container connect (C.of_bytes cbytes) in
      let d = { pub; server; mirror } in
      fun i ->
        ignore (write_step d edits.(i mod 2));
        List.iter
          (fun (_, policy) -> ignore (view ~key ~policy (Over_wire connect)))
          profiles

let child_heap_peak workload seed text =
  let cbytes, encoded, key, edits =
    let p = fst (setup workload text) in
    Option.iter (fun d -> Mirror.close d.mirror) p.dissem;
    ( C.to_bytes p.container,
      p.encoded,
      key_of p,
      Option.map (fun _ -> edits_of seed p.tree) p.dissem )
  in
  Gc.compact ();
  let round = bare_round workload ~key ~edits cbytes encoded in
  Gc.compact ();
  let peak = ref (heap_words ()) in
  let sample () = peak := max !peak (heap_words ()) in
  let alarm = Gc.create_alarm sample in
  heap_watch := Some sample;
  for i = 0 to heap_rounds - 1 do
    round i
  done;
  Gc.delete_alarm alarm;
  float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.

let heap_peak workload seed text =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let msg =
        match child_heap_peak workload seed text with
        | mb -> Printf.sprintf "%.17g" mb
        | exception e -> "error " ^ Printexc.to_string e
      in
      ignore (Unix.write_substring wr msg 0 (String.length msg));
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let msg = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      Option.to_result ~none:msg (float_of_string_opt msg)

(* ---- the run ---------------------------------------------------------- *)

let noise_loop () =
  let t0 = now_ns () in
  let x = ref 1 in
  for i = 1 to 200_000_000 do
    x := (!x * 1103515245) + 12345 + (i land 0xffff)
  done;
  Printf.printf "%.6f %d\n" (float_of_int (now_ns () - t0) /. 1e9) (!x land 1)

let write_spans path =
  (try
     let dir = Filename.dirname path in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc s;
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--noise-loop" then begin
    noise_loop ();
    exit 0
  end;
  let a = parse_args () in
  let text = xml_text a.workload a.seed in
  let heap =
    if a.traced then Ok 0. else heap_peak a.workload a.seed text
  in
  let setup_s, ops_of, setup_ok, input =
    prepare a.workload a.seed text
  in
  let attempted = ref 0 and failed = ref 0 and reference = ref [] in
  let account (r : round) =
    attempted := !attempted + List.length r.sigs;
    if !reference = [] then reference := r.sigs;
    let mismatch =
      List.fold_left2
        (fun n s s0 ->
          if s <> "" && s0 <> "" && s <> s0 then begin
            Printf.eprintf
              "perfbench: counters %s differ from the first round's %s\n%!" s s0;
            n + 1
          end
          else n)
        0 r.sigs !reference
    in
    failed := !failed + r.failed + mismatch
  in
  (* warm-up round: untraced and checked like every round, and the
     reference whose counters every later round must reproduce, traced
     rounds included *)
  account (run_round ~index:0 (ops_of 0));
  traced := a.traced;
  let t_start = now_ns () in
  let rounds = ref [] in
  let i = ref 1 in
  while !rounds = [] || float_of_int (now_ns () - t_start) /. 1e9 < a.seconds do
    (* each round starts from a collected heap, as a fresh client process
       does: otherwise the garbage of the previous round's checks (a
       decrypted document, oracle comparisons) is collected inside the
       next round's timed calls *)
    Gc.full_major ();
    let r = run_round ~index:!i (ops_of !i) in
    account r;
    rounds := r :: !rounds;
    incr i
  done;
  traced := false;
  (* the heap child's failure is one more failed operation *)
  let heap_mb =
    match heap with
    | Ok mb -> mb
    | Error msg ->
        Printf.eprintf "perfbench: heap measurement failed: %s\n%!" msg;
        incr attempted;
        incr failed;
        0.
  in
  let rs = List.rev !rounds in
  let n = List.length rs in
  let round_ms = List.map (fun r -> ms_of_ns r.ns) rs in
  let metric name unit v = (name, unit, v) in
  let metrics =
    if not a.traced then
      [
        metric "setup_s" "s" setup_s;
        metric "round_ms_p50" "ms" (median round_ms);
        metric "card_s_per_round" "s" (median (List.map (fun r -> r.card_s) rs));
        metric "alloc_mwords_per_round" "Mwords"
          (median (List.map (fun r -> float_of_int r.words /. 1e6) rs));
        metric "heap_peak_mb" "MB" heap_mb;
      ]
    else begin
      (* per-layer figures are per round, averaged over the sampled rounds,
         so that the layers' self times and the unattributed rest add up
         to trace.round_ms *)
      let mean f = List.fold_left (fun s x -> s +. f x) 0. rs /. float_of_int n in
      let t name =
        mean (fun r -> Option.value ~default:0. (List.assoc_opt name r.tallies))
      in
      let layer_ms l = mean (fun r -> ms_of_ns r.layers.Tracer.ns.(Tracer.index l)) in
      let layer_kw l =
        mean (fun r -> float_of_int r.layers.Tracer.w.(Tracer.index l) /. 1e3)
      in
      let ratio hits lookups = if t lookups > 0. then t hits /. t lookups else 0. in
      let attributed = Array.fold_left (fun s l -> s +. layer_ms l) 0. Tracer.all in
      let publish f = median (List.map f !publish_times) in
      [
        metric "terminal.ms" "ms" (layer_ms Terminal);
        metric "terminal.calls" "count"
          (mean (fun r -> float_of_int r.layers.Tracer.calls.(Tracer.index Terminal)));
        metric "channel.ms" "ms" (layer_ms Channel);
        metric "channel.kwords" "kwords" (layer_kw Channel);
        metric "channel.soe_kb" "KB" (t "channel.soe_kb");
        metric "channel.decrypted_kb" "KB" (t "channel.decrypted_kb");
        metric "channel.hashed_kb" "KB" (t "channel.hashed_kb");
        metric "channel.cache_hit_ratio" "ratio"
          (ratio "channel.cache_hits" "channel.cache_lookups");
        metric "decoder.ms" "ms" (layer_ms Decoder);
        metric "decoder.kwords" "kwords" (layer_kw Decoder);
        metric "decoder.events" "count" (t "decoder.events");
        metric "decoder.skipped_kb" "KB" (t "decoder.skipped_kb");
        metric "evaluator.ms" "ms" (layer_ms Evaluator);
        metric "evaluator.kwords" "kwords" (layer_kw Evaluator);
        metric "evaluator.transitions" "count" (t "evaluator.transitions");
        metric "emit.ms" "ms" (layer_ms Emit);
        metric "emit.kwords" "kwords" (layer_kw Emit);
        metric "emit.out_kb" "KB" (t "emit.out_kb");
        metric "card.comm_s" "s" (t "card.comm_s");
        metric "card.decrypt_s" "s" (t "card.decrypt_s");
        metric "card.ac_s" "s" (t "card.ac_s");
        metric "card.integrity_s" "s" (t "card.integrity_s");
        metric "wire.round_trips" "count" (t "wire.round_trips");
        metric "wire.kb" "KB" (t "wire.kb");
        metric "wire.leaf_cache_hit_ratio" "ratio"
          (ratio "wire.leaf_cache_hits" "wire.leaf_cache_lookups");
        metric "update.encode_ms" "ms" (layer_ms Update_encode);
        metric "update.reencrypt_ms" "ms" (layer_ms Update_reencrypt);
        metric "update.chunks_rewritten" "count" (t "update.chunks_rewritten");
        metric "dissem.delta_kb" "KB" (t "dissem.delta_kb");
        metric "dissem.sync_ms" "ms" (layer_ms Dissem);
        metric "publish.parse_ms" "ms" (publish (fun (x, _, _) -> x));
        metric "publish.encode_ms" "ms" (publish (fun (_, x, _) -> x));
        metric "publish.encrypt_ms" "ms" (publish (fun (_, _, x) -> x));
        metric "trace.round_ms" "ms" (mean (fun r -> ms_of_ns r.ns));
        metric "trace.round_ms_p50" "ms" (median round_ms);
        metric "trace.unattributed_ms" "ms"
          (mean (fun r -> ms_of_ns r.ns) -. attributed);
      ]
    end
  in
  if a.traced then write_spans a.trace_out;
  Printf.eprintf "perfbench: %s seed %d: %s\n" a.wname a.seed input;
  Printf.eprintf
    "perfbench: %d rounds sampled (+1 warm-up), %d operations, %d failed\n" n
    !attempted !failed;
  List.iter
    (fun (name, unit, v) -> Printf.eprintf "  %-28s %14.6f %s\n" name v unit)
    metrics;
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    setup_ok !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_num v) unit)
          metrics))

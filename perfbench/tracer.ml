(* Layer accounting for the traced run.

   The wrappers below sit on the closure records the program already
   exposes (the channel's terminal, the decoder's byte source, the
   evaluator's input and its delivery hook), so the program itself is not
   changed to be traced. Each wrapped call reads a monotonic clock and the
   domain's minor-word counter on entry and exit; a layer's self time is
   its calls' duration minus the time spent in wrapped calls nested inside
   them. The bookkeeping lives in preallocated int arrays and the two
   readings are unboxed, so tracing itself allocates nothing per call and
   the per-layer word counts are the layers' own. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

(* keeps bechamel's clock stubs linked even though only the external above
   is called *)
let _ = Monotonic_clock.now

let now_ns () = Int64.to_int (clock_ns ())
let words () = int_of_float (Gc.minor_words ())

type layer =
  | Terminal
  | Channel
  | Decoder
  | Evaluator
  | Emit
  | Update_encode
  | Update_reencrypt
  | Dissem

let all =
  [|
    Terminal;
    Channel;
    Decoder;
    Evaluator;
    Emit;
    Update_encode;
    Update_reencrypt;
    Dissem;
  |]

let count = Array.length all

let index = function
  | Terminal -> 0
  | Channel -> 1
  | Decoder -> 2
  | Evaluator -> 3
  | Emit -> 4
  | Update_encode -> 5
  | Update_reencrypt -> 6
  | Dissem -> 7

let name = function
  | Terminal -> "terminal"
  | Channel -> "channel"
  | Decoder -> "decoder"
  | Evaluator -> "evaluator"
  | Emit -> "emit"
  | Update_encode -> "update.encode"
  | Update_reencrypt -> "update.reencrypt"
  | Dissem -> "dissem"

(* Running totals, per layer index: self time, self minor words, calls. *)
type totals = { ns : int array; w : int array; calls : int array }

let fresh () =
  { ns = Array.make count 0; w = Array.make count 0; calls = Array.make count 0 }

let acc = fresh ()

let snapshot () =
  { ns = Array.copy acc.ns; w = Array.copy acc.w; calls = Array.copy acc.calls }

(* [diff a b]: what was charged between snapshots [b] and [a] *)
let diff a b =
  {
    ns = Array.map2 ( - ) a.ns b.ns;
    w = Array.map2 ( - ) a.w b.w;
    calls = Array.map2 ( - ) a.calls b.calls;
  }

(* the stack of open wrapped calls *)
let max_depth = 256
let st_layer = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_child_w = Array.make max_depth 0
let depth = ref 0

let enter l =
  let d = !depth in
  st_layer.(d) <- l;
  st_child_ns.(d) <- 0;
  st_child_w.(d) <- 0;
  depth := d + 1;
  st_w0.(d) <- words ();
  st_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = words () in
  let d = !depth - 1 in
  depth := d;
  let dt = t1 - st_t0.(d) and dw = w1 - st_w0.(d) in
  let l = st_layer.(d) in
  acc.ns.(l) <- acc.ns.(l) + dt - st_child_ns.(d);
  acc.w.(l) <- acc.w.(l) + dw - st_child_w.(d);
  acc.calls.(l) <- acc.calls.(l) + 1;
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dt;
    st_child_w.(d - 1) <- st_child_w.(d - 1) + dw
  end

let span layer f =
  enter (index layer);
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let terminal_i = index Terminal
let channel_i = index Channel
let decoder_i = index Decoder
let emit_i = index Emit

(* The wrappers. Each is written out rather than built from [span] so the
   hot paths allocate no closure per call. *)

module Ch = Xmlac_soe.Channel

let terminal (t : Ch.terminal) : Ch.terminal =
  let fetch_fragment ~chunk ~fragment ~lo ~hi =
    enter terminal_i;
    match t.fetch_fragment ~chunk ~fragment ~lo ~hi with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let fetch_chunk ~chunk =
    enter terminal_i;
    match t.fetch_chunk ~chunk with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let fetch_digest ~chunk =
    enter terminal_i;
    match t.fetch_digest ~chunk with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let fetch_hash_state ~chunk ~fragment ~upto =
    enter terminal_i;
    match t.fetch_hash_state ~chunk ~fragment ~upto with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let fetch_siblings ~chunk ~fragment =
    enter terminal_i;
    match t.fetch_siblings ~chunk ~fragment with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let fetch_many =
    Option.map
      (fun f reqs ->
        enter terminal_i;
        match f reqs with
        | v ->
            leave ();
            v
        | exception e ->
            leave ();
            raise e)
      t.fetch_many
  in
  {
    t with
    fetch_fragment;
    fetch_chunk;
    fetch_digest;
    fetch_hash_state;
    fetch_siblings;
    fetch_many;
  }

let source (s : Xmlac_skip_index.Decoder.source) :
    Xmlac_skip_index.Decoder.source =
  {
    s with
    read =
      (fun ~pos ~len ->
        enter channel_i;
        match s.read ~pos ~len with
        | v ->
            leave ();
            v
        | exception e ->
            leave ();
            raise e);
  }

let input (i : Xmlac_core.Input.t) : Xmlac_core.Input.t =
  let thunk th () =
    enter decoder_i;
    match th () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  let skipper f () =
    enter decoder_i;
    match f () with
    | v ->
        leave ();
        Option.map (fun (th, n) -> (thunk th, n)) v
    | exception e ->
        leave ();
        raise e
  in
  {
    i with
    next =
      (fun () ->
        enter decoder_i;
        match i.next () with
        | v ->
            leave ();
            v
        | exception e ->
            leave ();
            raise e);
    desc_tags =
      (fun () ->
        enter decoder_i;
        match i.desc_tags () with
        | v ->
            leave ();
            v
        | exception e ->
            leave ();
            raise e);
    skip = skipper i.skip;
    skip_rest = skipper i.skip_rest;
  }

(* the evaluator's eager-delivery hook: the benchmark, like the CLI,
   serializes the view only once the run ends, so the hook does no work of
   its own; wrapping it still charges delivery to emit, not evaluation *)
let on_deliver ~seq:_ _events =
  enter emit_i;
  leave ()

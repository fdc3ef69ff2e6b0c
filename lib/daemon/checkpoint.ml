module Io = Ubg.Io
module Engine = Dynamic.Engine
module Csr = Graph.Csr

let save ~path ~events engine =
  let snap = Engine.latest engine in
  let params = Engine.params engine in
  let ck =
    {
      Io.ck_epoch = snap.Engine.snap_epoch;
      ck_events = events;
      ck_alpha = params.Topo.Params.alpha;
      ck_points = snap.Engine.snap_points;
      ck_alive = snap.Engine.snap_alive;
      ck_ubg = Csr.to_wgraph snap.Engine.snap_ubg;
      ck_spanner = Csr.to_wgraph snap.Engine.snap_spanner;
      ck_stretch = snap.Engine.snap_stretch;
    }
  in
  let tmp = path ^ ".tmp" in
  Io.save_checkpoint tmp ck;
  Sys.rename tmp path

let load = Io.load_checkpoint
let cursor ck = (ck.Io.ck_epoch, ck.Io.ck_events)

let restore ?backend ~params ck =
  let snap =
    {
      Engine.snap_epoch = ck.Io.ck_epoch;
      snap_points = ck.Io.ck_points;
      snap_alive = ck.Io.ck_alive;
      snap_ubg = Csr.of_wgraph ck.Io.ck_ubg;
      snap_spanner = Csr.of_wgraph ck.Io.ck_spanner;
      snap_stretch = ck.Io.ck_stretch;
      (* The checkpoint format carries no inter-epoch diff; a resumed
         engine's first snapshot has no predecessor to be dirty
         against, and re-attached consumers scratch-build anyway. *)
      snap_dirty = [||];
    }
  in
  Engine.restore ?backend ~params snap

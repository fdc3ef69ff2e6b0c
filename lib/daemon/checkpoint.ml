module Io = Ubg.Io
module Engine = Dynamic.Engine
module Csr = Graph.Csr

type t = { snapshot : Engine.snapshot; events : int; alpha : float }

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

let load path =
  let ck = Io.load_checkpoint_csr path in
  {
    snapshot =
      {
        Engine.snap_epoch = ck.Io.ck_epoch;
        snap_points = ck.Io.ck_points;
        snap_alive = ck.Io.ck_alive;
        snap_ubg = ck.Io.ck_ubg;
        snap_spanner = ck.Io.ck_spanner;
        snap_stretch = ck.Io.ck_stretch;
        (* The checkpoint format carries no inter-epoch diff; a resumed
           engine's first snapshot has no predecessor to be dirty
           against, and re-attached consumers scratch-build anyway. *)
        snap_dirty = [||];
      };
    events = ck.Io.ck_events;
    alpha = ck.Io.ck_alpha;
  }

let cursor ck = (ck.snapshot.Engine.snap_epoch, ck.events)

let restore ?backend ~params ck = Engine.restore ?backend ~params ck.snapshot

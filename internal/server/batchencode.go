package server

import (
	"context"
	"strconv"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// Batch frame encoding: per-frame compression and delta-encoded
// dynamic boxes. The full payload is always produced first (it is what
// the backend cache stores and what cache hits re-serve); the frame
// codec only decides how the payload crosses THIS wire, so a delta or
// compressed frame never pollutes the cache.

// deltaMinOverlap is the fraction of the new box's area its base must
// cover before delta encoding can pay off: below it most rows are
// entering anyway and the tombstone machinery is pure overhead.
const deltaMinOverlap = 0.25

// encodeFrame turns one OK full payload into its wire form:
// delta-encoded against the item's declared base when that pays off,
// then DEFLATE-compressed when allowed and the worth-it heuristic
// agrees. The fallback at every step is the previous form — worst
// case the frame ships raw.
func (s *Server) encodeFrame(ctx context.Context, canvas string, it BatchItem, codec Codec, full []byte, compress bool) ([]byte, wire.FrameCodec) {
	body, fc := full, wire.CodecRaw
	if it.Kind == "dbox" && it.Base != nil {
		_, sp := s.tracer().Start(ctx, "delta.plan")
		start := time.Now()
		delta, ok := s.planDeltaFrame(canvas, it, codec, full)
		s.obs.stageDelta.Observe(time.Since(start))
		sp.Attr("applied", ok)
		sp.End()
		if ok {
			body, fc = delta, wire.CodecDelta
			s.Stats.DeltaFrames.Add(1)
		}
	}
	if compress && wire.ShouldCompress(body) {
		_, sp := s.tracer().Start(ctx, "compress")
		start := time.Now()
		cb, err := wire.Compress(body)
		s.obs.stageComp.Observe(time.Since(start))
		applied := err == nil && len(cb) < len(body)
		sp.Attr("applied", applied)
		sp.End()
		if applied {
			body = cb
			if fc == wire.CodecDelta {
				fc = wire.CodecDeltaFlate
			} else {
				fc = wire.CodecFlate
			}
			s.Stats.CompressedFrames.Add(1)
		}
	}
	return body, fc
}

// planDeltaFrame attempts to delta-encode a dbox payload against the
// client's declared base. It returns ok=false — meaning "ship the full
// frame" — whenever the delta cannot be proven both correct and
// profitable:
//
//   - the base overlaps too little of the new box (the rows would
//     mostly be entering anyway),
//   - the base payload is no longer in the backend cache (recomputing
//     it would cost a database query to save wire bytes),
//   - the cached base does not hash to the client's declared id (the
//     client holds stale bytes, e.g. from before an /update),
//   - either payload's first column is not an integer id (no row
//     identity to diff on), or
//   - the encoded delta is not actually smaller than the full payload.
func (s *Server) planDeltaFrame(canvas string, it BatchItem, codec Codec, full []byte) ([]byte, bool) {
	base := it.Base
	baseBox, newBox := base.Box(), it.Box()
	if !baseBox.Valid() || baseBox.Area() <= 0 {
		return nil, false
	}
	inter := newBox.Intersection(baseBox)
	if !inter.Valid() || inter.Area() < deltaMinOverlap*newBox.Area() {
		return nil, false
	}
	baseID, err := strconv.ParseUint(base.ID, 16, 64)
	if err != nil {
		return nil, false
	}
	pl, ok := s.Layer(canvas, it.Layer)
	if !ok || pl.Table == "" {
		return nil, false
	}
	// An auto-LOD layer serves different pyramid levels at different
	// zooms, and a representative row keeps its id across levels while
	// its aggregate columns change — the same-id ⇒ same-content premise
	// of the row diff does not hold across levels. Delta only within one
	// level (both -1 for non-LOD layers, preserving their behavior).
	if pl.LODLevelFor(baseBox) != pl.LODLevelFor(newBox) {
		return nil, false
	}
	cached, ok := s.bcache.Peek(s.boxCacheKey(pl, codec, baseBox))
	if !ok {
		return nil, false
	}
	basePayload := cached.([]byte)
	if wire.PayloadID(basePayload) != baseID {
		return nil, false
	}
	baseDR, err := s.decodeMemoized(baseID, basePayload, codec)
	if err != nil || !hasIntIdentity(baseDR) {
		return nil, false
	}
	newID := wire.PayloadID(full)
	newDR, err := s.decodeMemoized(newID, full, codec)
	if err != nil || !hasIntIdentity(newDR) {
		return nil, false
	}

	newIDs := make(map[int64]bool, len(newDR.Rows))
	for _, row := range newDR.Rows {
		newIDs[row[0].AsInt()] = true
	}
	baseIDs := make(map[int64]bool, len(baseDR.Rows))
	var tombstones []int64
	for _, row := range baseDR.Rows {
		id := row[0].AsInt()
		baseIDs[id] = true
		if !newIDs[id] {
			tombstones = append(tombstones, id)
		}
	}
	// The diff is a set diff: duplicate ids within a box would collapse
	// in the maps and reconstruct a wrong row multiset client-side. A
	// layer emitting non-unique ids gets full frames instead.
	if len(newIDs) != len(newDR.Rows) || len(baseIDs) != len(baseDR.Rows) {
		return nil, false
	}
	var entering []storage.Row
	for _, row := range newDR.Rows {
		if !baseIDs[row[0].AsInt()] {
			entering = append(entering, row)
		}
	}
	enterPayload, err := Encode(&DataResponse{
		Cols: newDR.Cols, Types: newDR.Types, Rows: entering,
	}, codec)
	if err != nil {
		return nil, false
	}
	body := wire.EncodeDelta(wire.Delta{
		FullLen:    len(full),
		NewID:      newID,
		Tombstones: tombstones,
		Entering:   enterPayload,
	})
	if len(body) >= len(full) {
		return nil, false
	}
	return body, true
}

// decodeMemoized resolves a dbox payload's decoded rows through the
// content-addressed delta memo. Query execution seeds the memo (the
// rows are in hand before they are encoded — see runQuery), so on a
// pan chain both the base and the new payload are usually hits and the
// delta plan runs decode-free; a miss (memo eviction, server restart
// mid-session) decodes and re-seeds. Decoded rows are immutable and
// the key is the payload's own hash, so entries can never go stale.
func (s *Server) decodeMemoized(id uint64, payload []byte, codec Codec) (*DataResponse, error) {
	key := memoKey(id, codec)
	if v, ok := s.deltaMemo.Get(key); ok {
		return v.(*DataResponse), nil
	}
	dr, err := Decode(payload, codec)
	if err != nil {
		return nil, err
	}
	s.deltaMemo.Put(key, dr, int64(len(payload)))
	return dr, nil
}

// memoizeDecoded seeds the delta memo with rows decoded (or produced)
// elsewhere, charged by the size of the payload they decode from —
// the decoded form scales with it, so the memo's byte budget tracks
// real residency.
func (s *Server) memoizeDecoded(id uint64, codec Codec, dr *DataResponse, payloadLen int) {
	s.deltaMemo.Put(memoKey(id, codec), dr, int64(payloadLen))
}

func memoKey(id uint64, codec Codec) string {
	return strconv.FormatUint(id, 16) + "/" + string(codec)
}

// hasIntIdentity reports whether a payload's rows carry the integer
// identity column the delta diff keys on.
func hasIntIdentity(dr *DataResponse) bool {
	if len(dr.Cols) == 0 || len(dr.Types) == 0 {
		return false
	}
	if len(dr.Rows) == 0 {
		// No rows to diff; the type fallback makes Types[0]
		// unreliable, but an empty side is still diffable.
		return true
	}
	return dr.Types[0] == storage.TInt64
}

// boxCacheKey is the backend-cache key of one dynamic-box payload —
// shared by serveBox (store/lookup) and the delta planner (base
// lookup), so the two can never disagree on where a base lives.
func (s *Server) boxCacheKey(pl *fetch.PhysicalLayer, codec Codec, box geom.Rect) string {
	return codecBoxKey(codec, layerKey(pl.CanvasID, pl.LayerIdx), box)
}

func codecBoxKey(codec Codec, layer string, box geom.Rect) string {
	return string(codec) + "/" + fetch.BoxKeyOf(layer, box)
}

package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// maxMatrixBody bounds a /matrix request body; at 8 bytes a vertex id even
// a full 64×64 ETA-matrix request is far under 1 MiB.
const maxMatrixBody = 1 << 20

// StaleHeader marks responses served from a pre-reload hot-pair row
// (stale-while-revalidate). The obs middleware reads it to feed the SLO
// stale-serve rate without parsing response bodies.
const StaleHeader = obs.StaleHeader

// matrixRequest is the POST /graphs/{name}/matrix body.
type matrixRequest struct {
	Sources []int32 `json:"sources"`
	Targets []int32 `json:"targets"`
}

// sourcesRequest is the POST /graphs/{name}/multi and /nearest body; the
// optional Offsets turn a /nearest into an offset-seeded exploration
// (the sharded router's continuation primitive).
type sourcesRequest struct {
	Sources []int32   `json:"sources"`
	Offsets []float64 `json:"offsets,omitempty"`
}

// jsonMatrix maps every +Inf entry to null, row by row.
func jsonMatrix(rows [][]float64) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		r := make([]any, len(row))
		for j, d := range row {
			r[j] = jsonDist(d)
		}
		out[i] = r
	}
	return out
}

// NewRegistryHandler exposes a Registry over HTTP/JSON — the multi-graph
// serving surface of cmd/serve:
//
//	GET  /graphs                      → {"graphs":[…], "stats":{…}}
//	GET  /graphs/{name}               → per-graph status (build progress, version, …)
//	GET  /graphs/{name}/ready         → 200 when ready, 503 otherwise (per-graph readiness)
//	GET  /graphs/{name}/dist?source=S[&target=T]
//	GET  /graphs/{name}/path?from=U&to=V
//	POST /graphs/{name}/matrix        → {"sources":[…],"targets":[…]} ⇒ S×T matrix
//	GET  /graphs/{name}/stats         → status + engine counters
//	POST /graphs/{name}/reload        → 202; rebuilds in the background and hot-swaps
//	GET  /stats                       → aggregate registry stats
//	GET  /healthz                     → registry aggregate status:
//	     200 {"status":"ok",…} once any graph serves (or none are registered),
//	     503 {"status":"starting",…} while every graph is still building,
//	     503 {"status":"failed",…} when every graph failed for good
//
// Unknown graphs map to 404; graphs that are pending/building/failed/
// evicted map to 503 (retryable); vertex-range and path-reporting errors
// to 400. Every query runs through a refcounted engine handle (or, for
// /dist with a hot-pair cache, through the version-tagged SWR surface),
// so answers are never mixed across hot-reload versions; /dist responses
// carry the engine version that produced them, plus "stale":true when a
// pre-reload row was served while the new engine warms.
func NewRegistryHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		st := r.Stats()
		status, code := "ok", http.StatusOK
		switch {
		case st.Graphs > 0 && st.Ready == 0 && st.Failed == st.Graphs:
			status, code = "failed", http.StatusServiceUnavailable
		case st.Graphs > 0 && st.Ready == 0:
			status, code = "starting", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{"status": status, "registry": st})
	})
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, map[string]any{"graphs": r.List(), "stats": r.Stats()})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Stats())
	})
	mux.HandleFunc("GET /graphs/{name}", func(w http.ResponseWriter, req *http.Request) {
		gi, err := r.Info(req.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, gi)
	})
	mux.HandleFunc("GET /graphs/{name}/ready", func(w http.ResponseWriter, req *http.Request) {
		gi, err := r.Info(req.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		if gi.Status != StatusReady {
			w.WriteHeader(http.StatusServiceUnavailable)
			writeJSON(w, gi)
			return
		}
		writeJSON(w, gi)
	})
	mux.HandleFunc("GET /graphs/{name}/dist", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		source, err := vertexParam(req, "source")
		if err != nil {
			writeError(w, err)
			return
		}
		// /dist runs through the SWR surface: with a hot-pair cache the
		// row may be served stale across a hot reload (flagged below);
		// without one this is exactly the pinned-handle path.
		if t := req.URL.Query().Get("target"); t != "" {
			target, err := vertexParam(req, "target")
			if err != nil {
				writeError(w, err)
				return
			}
			d, ver, stale, err := r.DistToSWRContext(req.Context(), name, source, target)
			if err != nil {
				writeError(w, err)
				return
			}
			resp := map[string]any{
				"graph": name, "version": ver,
				"source": source, "target": target, "dist": jsonDist(d),
			}
			if stale {
				resp["stale"] = true
				w.Header().Set(StaleHeader, "true")
			}
			writeJSON(w, resp)
			return
		}
		res, err := r.DistSWRContext(req.Context(), name, source)
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([]any, len(res.Dist))
		for i, d := range res.Dist {
			out[i] = jsonDist(d)
		}
		resp := map[string]any{
			"graph": name, "version": res.Version, "source": source, "dist": out,
		}
		if res.Stale {
			resp["stale"] = true
			w.Header().Set(StaleHeader, "true")
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /graphs/{name}/path", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		from, err1 := vertexParam(req, "from")
		to, err2 := vertexParam(req, "to")
		if err := errors.Join(err1, err2); err != nil {
			writeError(w, err)
			return
		}
		h, err := r.Acquire(name)
		if err != nil {
			writeError(w, err)
			return
		}
		defer h.Release()
		path, length, err := pathVia(req.Context(), h.Engine(), from, to)
		if err != nil {
			writeError(w, err)
			return
		}
		r.auditPath(req.Context(), name, h, from, to, path, length)
		writeJSON(w, map[string]any{
			"graph": name, "version": h.Version(),
			"from": from, "to": to, "path": path, "length": jsonDist(length),
		})
	})
	mux.HandleFunc("POST /graphs/{name}/matrix", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		var body matrixRequest
		req.Body = http.MaxBytesReader(w, req.Body, maxMatrixBody)
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			writeError(w, &badRequestError{msg: "bad matrix body: " + err.Error()})
			return
		}
		h, err := r.Acquire(name)
		if err != nil {
			writeError(w, err)
			return
		}
		defer h.Release()
		mb, ok := h.Engine().(MatrixBackend)
		if !ok {
			writeError(w, fmt.Errorf("%w: matrix", ErrUnsupported))
			return
		}
		var rows [][]float64
		if cmb, ok := h.Engine().(ContextMatrixBackend); ok {
			rows, err = cmb.MatrixContext(req.Context(), body.Sources, body.Targets)
		} else {
			rows, err = mb.Matrix(body.Sources, body.Targets)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		r.auditMatrix(req.Context(), name, h, body.Sources, body.Targets, rows)
		writeJSON(w, map[string]any{
			"graph": name, "version": h.Version(),
			"sources": body.Sources, "targets": body.Targets,
			"matrix": jsonMatrix(rows),
		})
	})
	mux.HandleFunc("POST /graphs/{name}/multi", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		var body sourcesRequest
		req.Body = http.MaxBytesReader(w, req.Body, maxMatrixBody)
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			writeError(w, &badRequestError{msg: "bad multi body: " + err.Error()})
			return
		}
		h, err := r.Acquire(name)
		if err != nil {
			writeError(w, err)
			return
		}
		defer h.Release()
		rows, err := h.Engine().MultiSource(body.Sources)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{
			"graph": name, "version": h.Version(),
			"sources": body.Sources, "rows": jsonMatrix(rows),
		})
	})
	mux.HandleFunc("POST /graphs/{name}/nearest", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		var body sourcesRequest
		req.Body = http.MaxBytesReader(w, req.Body, maxMatrixBody)
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			writeError(w, &badRequestError{msg: "bad nearest body: " + err.Error()})
			return
		}
		h, err := r.Acquire(name)
		if err != nil {
			writeError(w, err)
			return
		}
		defer h.Release()
		var dist []float64
		if body.Offsets != nil {
			ob, ok := h.Engine().(OffsetBackend)
			if !ok {
				writeError(w, fmt.Errorf("%w: nearest with offsets", ErrUnsupported))
				return
			}
			dist, err = ob.NearestWithOffsets(body.Sources, body.Offsets)
		} else {
			dist, err = h.Engine().Nearest(body.Sources)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([]any, len(dist))
		for i, d := range dist {
			out[i] = jsonDist(d)
		}
		writeJSON(w, map[string]any{
			"graph": name, "version": h.Version(), "dist": out,
		})
	})
	mux.HandleFunc("GET /graphs/{name}/tree", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		source, err := vertexParam(req, "source")
		if err != nil {
			writeError(w, err)
			return
		}
		h, err := r.Acquire(name)
		if err != nil {
			writeError(w, err)
			return
		}
		defer h.Release()
		tree, err := h.Engine().Tree(source)
		if err != nil {
			writeError(w, err)
			return
		}
		dist := make([]any, len(tree.Dist))
		for i, d := range tree.Dist {
			dist[i] = jsonDist(d)
		}
		writeJSON(w, map[string]any{
			"graph": name, "version": h.Version(), "source": tree.Source,
			"parent": tree.Parent, "parent_w": tree.ParentW, "dist": dist,
		})
	})
	mux.HandleFunc("GET /graphs/{name}/stats", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		gi, err := r.Info(name)
		if err != nil {
			writeError(w, err)
			return
		}
		out := map[string]any{"graph": gi}
		if st, err := r.EngineStats(name); err == nil {
			out["engine"] = st
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("POST /graphs/{name}/reload", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		if err := r.Reload(name); err != nil {
			writeError(w, err)
			return
		}
		gi, err := r.Info(name)
		if err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, gi)
	})
	return mux
}

// vertexParam parses a required vertex-id query parameter.
func vertexParam(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, &badRequestError{msg: "missing query parameter " + name}
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, &badRequestError{msg: "bad " + name + ": " + err.Error()}
	}
	return int32(v), nil
}

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// jsonDist maps +Inf (unreachable) to null — JSON has no Inf literal.
func jsonDist(d float64) any {
	if math.IsInf(d, 1) {
		return nil
	}
	return d
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var bad *badRequestError
	switch {
	case errors.As(err, &bad),
		errors.Is(err, ErrVertexOutOfRange),
		errors.Is(err, ErrNeedPathReporting),
		errors.Is(err, ErrNeedSources),
		errors.Is(err, ErrOffsetsMismatch):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnknownGraph):
		status = http.StatusNotFound
	case errors.Is(err, ErrUnsupported):
		status = http.StatusNotImplemented
	case errors.Is(err, ErrNotBuilt),
		errors.Is(err, ErrGraphNotReady),
		errors.Is(err, ErrRegistryClosed):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The code carries the typed sentinel across the process boundary:
	// RemoteBackend decodes it back so errors.Is matches remotely exactly
	// as it would in-process.
	body := map[string]string{"error": err.Error()}
	if code := errorCode(err); code != "" {
		body["code"] = code
	}
	json.NewEncoder(w).Encode(body)
}

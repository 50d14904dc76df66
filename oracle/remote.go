package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// RemoteBackend is an HTTP client implementing the full Backend (and
// MatrixBackend, OffsetBackend) surface against another serve process's
// /graphs/{name}/* routes — the seam that lets per-shard engines live in
// separate processes while the registry, Handle pinning, and eviction
// work unchanged: a RemoteBackend is registered, hot-reloaded, and
// queried exactly like a local engine.
//
// Typed errors round-trip: a sentinel raised in the remote process is
// encoded as a wire code by writeError and decoded back here, so
// errors.Is(err, ErrUnsupported), ErrVertexOutOfRange, ErrGraphNotReady,
// … match exactly as they would in-process. Failures with no typed
// sentinel (transport errors, unexpected statuses) wrap ErrRemote, which
// is the router's signal that another replica may succeed.
//
// Answers are bit-identical to the remote engine's: Go's JSON encoder
// emits the shortest float64 representation that parses back exactly, so
// a distance survives the hop bit-for-bit, and +Inf (unreachable) maps to
// null and back.
//
// RemoteBackend is stateless per call and safe for concurrent use. The
// *Context method variants take a caller context so hedged requests can
// be canceled when a sibling replica answers first.
type RemoteBackend struct {
	base   string // endpoint base URL, no trailing slash
	graph  string // remote graph name
	client *http.Client

	// info caches the remote GraphInfo for N/MemoryBytes/Describe; it is
	// fetched lazily and refreshed at most every infoTTL so status polls
	// do not hammer the worker.
	infoMu   sync.Mutex
	info     GraphInfo
	infoAt   time.Time
	infoOnce bool
}

// infoTTL bounds how stale the cached remote GraphInfo may be before
// Describe/MemoryBytes refresh it.
const infoTTL = 5 * time.Second

// NewRemoteBackend returns a client for graph name served at the base
// URL (scheme://host:port). A nil client uses a dedicated http.Client
// with a 60s overall timeout; pass one to tune transport pooling or
// per-attempt timeouts.
func NewRemoteBackend(baseURL, name string, client *http.Client) *RemoteBackend {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &RemoteBackend{
		base:   strings.TrimRight(baseURL, "/"),
		graph:  name,
		client: client,
	}
}

// URL returns the endpoint base URL this backend talks to.
func (b *RemoteBackend) URL() string { return b.base }

// Graph returns the remote graph name this backend queries.
func (b *RemoteBackend) Graph() string { return b.graph }

// RemoteError is the decoded failure of one remote call. Unwrap returns
// the typed sentinel the wire code names (or ErrRemote when there is
// none), so errors.Is matches through it.
type RemoteError struct {
	Status int    // HTTP status, 0 for transport failures
	Code   string // wire code ("" when the remote sent none)
	Msg    string // remote error message or transport error text
}

func (e *RemoteError) Error() string {
	if e.Status == 0 {
		return "oracle: remote: " + e.Msg
	}
	return fmt.Sprintf("oracle: remote [%d]: %s", e.Status, e.Msg)
}

func (e *RemoteError) Unwrap() error {
	if s := sentinelForCode(e.Code); s != nil {
		return s
	}
	// No code (old server, proxy error page): fall back on the status
	// classes writeError uses, so the common sentinels still match.
	switch e.Status {
	case http.StatusNotImplemented:
		return ErrUnsupported
	case http.StatusNotFound:
		return ErrUnknownGraph
	case http.StatusServiceUnavailable:
		return ErrGraphNotReady
	}
	return ErrRemote
}

// IsRemoteTransient reports whether err is worth retrying on another
// replica: transport failures and 5xx-class remote states (not-ready,
// overloaded), as opposed to typed 4xx/501 answers that every replica
// would repeat.
func IsRemoteTransient(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	switch {
	case re.Status == 0: // transport: connection refused, reset, timeout
		return true
	case re.Status >= 500 && re.Status != http.StatusNotImplemented:
		return true
	case re.Status == http.StatusTooManyRequests:
		return true
	}
	return false
}

// do runs one HTTP round-trip and decodes the JSON response into out.
// Non-2xx responses become *RemoteError with the wire code preserved.
func (b *RemoteBackend) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("%w: encode request: %v", ErrRemote, err)
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRemote, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the active trace across the process boundary: the remote
	// worker's server span becomes a child of the span carried in ctx.
	if sp := obs.FromContext(ctx); sp.Active() {
		req.Header.Set("traceparent", sp.Traceparent())
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return &RemoteError{Status: 0, Msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var werr struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &werr) == nil && werr.Error != "" {
			msg = werr.Error
		}
		return &RemoteError{Status: resp.StatusCode, Code: werr.Code, Msg: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &RemoteError{Status: resp.StatusCode, Msg: "decode response: " + err.Error()}
	}
	return nil
}

// shapeError reports a 2xx response that decoded but does not have the
// shape the request implies — a buggy or mismatched worker. Handing it on
// would let the router's stitching index a short row out of range.
func shapeError(format string, args ...any) error {
	return &RemoteError{Status: http.StatusOK, Msg: "bad response shape: " + fmt.Sprintf(format, args...)}
}

// graphPath builds /graphs/{name}/{verb}.
func (b *RemoteBackend) graphPath(verb string) string {
	return "/graphs/" + url.PathEscape(b.graph) + "/" + verb
}

// distRow is the wire shape of one distance vector: null = +Inf.
func distRow(in []*float64) []float64 {
	out := make([]float64, len(in))
	for i, p := range in {
		if p == nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = *p
		}
	}
	return out
}

// DistContext is Dist with a caller context (hedging cancels through it).
func (b *RemoteBackend) DistContext(ctx context.Context, source int32) ([]float64, error) {
	var resp struct {
		Dist []*float64 `json:"dist"`
	}
	q := "?source=" + strconv.FormatInt(int64(source), 10)
	if err := b.do(ctx, http.MethodGet, b.graphPath("dist")+q, nil, &resp); err != nil {
		return nil, err
	}
	return distRow(resp.Dist), nil
}

// Dist implements Backend.
func (b *RemoteBackend) Dist(source int32) ([]float64, error) {
	return b.DistContext(context.Background(), source)
}

// DistTo implements Backend via the scalar form of /dist.
func (b *RemoteBackend) DistTo(source, target int32) (float64, error) {
	var resp struct {
		Dist *float64 `json:"dist"`
	}
	q := fmt.Sprintf("?source=%d&target=%d", source, target)
	if err := b.do(context.Background(), http.MethodGet, b.graphPath("dist")+q, nil, &resp); err != nil {
		return 0, err
	}
	if resp.Dist == nil {
		return math.Inf(1), nil
	}
	return *resp.Dist, nil
}

// MultiSourceContext is MultiSource with a caller context.
func (b *RemoteBackend) MultiSourceContext(ctx context.Context, sources []int32) ([][]float64, error) {
	var resp struct {
		Rows [][]*float64 `json:"rows"`
	}
	body := sourcesRequest{Sources: sources}
	if err := b.do(ctx, http.MethodPost, b.graphPath("multi"), body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Rows) != len(sources) {
		return nil, shapeError("multi: %d rows for %d sources", len(resp.Rows), len(sources))
	}
	for i, row := range resp.Rows {
		if len(row) != len(resp.Rows[0]) {
			return nil, shapeError("multi: row %d has %d entries, row 0 has %d", i, len(row), len(resp.Rows[0]))
		}
	}
	out := make([][]float64, len(resp.Rows))
	for i, row := range resp.Rows {
		out[i] = distRow(row)
	}
	return out, nil
}

// MultiSource implements Backend.
func (b *RemoteBackend) MultiSource(sources []int32) ([][]float64, error) {
	return b.MultiSourceContext(context.Background(), sources)
}

// NearestContext is Nearest with a caller context.
func (b *RemoteBackend) NearestContext(ctx context.Context, sources []int32) ([]float64, error) {
	return b.nearest(ctx, sourcesRequest{Sources: sources})
}

// Nearest implements Backend.
func (b *RemoteBackend) Nearest(sources []int32) ([]float64, error) {
	return b.NearestContext(context.Background(), sources)
}

// NearestWithOffsetsContext is NearestWithOffsets with a caller context.
func (b *RemoteBackend) NearestWithOffsetsContext(ctx context.Context, sources []int32, offsets []float64) ([]float64, error) {
	if offsets == nil {
		offsets = []float64{}
	}
	return b.nearest(ctx, sourcesRequest{Sources: sources, Offsets: offsets})
}

// NearestWithOffsets implements OffsetBackend.
func (b *RemoteBackend) NearestWithOffsets(sources []int32, offsets []float64) ([]float64, error) {
	return b.NearestWithOffsetsContext(context.Background(), sources, offsets)
}

func (b *RemoteBackend) nearest(ctx context.Context, body sourcesRequest) ([]float64, error) {
	var resp struct {
		Dist []*float64 `json:"dist"`
	}
	if err := b.do(ctx, http.MethodPost, b.graphPath("nearest"), body, &resp); err != nil {
		return nil, err
	}
	return distRow(resp.Dist), nil
}

// PathContext is Path with a caller context.
func (b *RemoteBackend) PathContext(ctx context.Context, u, v int32) ([]int32, float64, error) {
	var resp struct {
		Path   []int32  `json:"path"`
		Length *float64 `json:"length"`
	}
	q := fmt.Sprintf("?from=%d&to=%d", u, v)
	if err := b.do(ctx, http.MethodGet, b.graphPath("path")+q, nil, &resp); err != nil {
		return nil, 0, err
	}
	if resp.Length == nil {
		return nil, math.Inf(1), nil
	}
	return resp.Path, *resp.Length, nil
}

// Path implements Backend.
func (b *RemoteBackend) Path(u, v int32) ([]int32, float64, error) {
	return b.PathContext(context.Background(), u, v)
}

// Tree implements Backend over GET /graphs/{name}/tree.
func (b *RemoteBackend) Tree(source int32) (*Tree, error) {
	var resp struct {
		Source  int32      `json:"source"`
		Parent  []int32    `json:"parent"`
		ParentW []float64  `json:"parent_w"`
		Dist    []*float64 `json:"dist"`
	}
	q := "?source=" + strconv.FormatInt(int64(source), 10)
	if err := b.do(context.Background(), http.MethodGet, b.graphPath("tree")+q, nil, &resp); err != nil {
		return nil, err
	}
	return &Tree{
		Source:  resp.Source,
		Parent:  resp.Parent,
		ParentW: resp.ParentW,
		Dist:    distRow(resp.Dist),
	}, nil
}

// MatrixContext is Matrix with a caller context.
func (b *RemoteBackend) MatrixContext(ctx context.Context, sources, targets []int32) ([][]float64, error) {
	var resp struct {
		Matrix [][]*float64 `json:"matrix"`
	}
	body := matrixRequest{Sources: sources, Targets: targets}
	if err := b.do(ctx, http.MethodPost, b.graphPath("matrix"), body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Matrix) != len(sources) {
		return nil, shapeError("matrix: %d rows for %d sources", len(resp.Matrix), len(sources))
	}
	for i, row := range resp.Matrix {
		if len(row) != len(targets) {
			return nil, shapeError("matrix: row %d has %d entries for %d targets", i, len(row), len(targets))
		}
	}
	out := make([][]float64, len(resp.Matrix))
	for i, row := range resp.Matrix {
		out[i] = distRow(row)
	}
	return out, nil
}

// Matrix implements MatrixBackend.
func (b *RemoteBackend) Matrix(sources, targets []int32) ([][]float64, error) {
	return b.MatrixContext(context.Background(), sources, targets)
}

// Ready reports whether the remote graph currently serves (its /ready
// route answers 200). Transport failures return the error.
func (b *RemoteBackend) Ready(ctx context.Context) (bool, error) {
	err := b.do(ctx, http.MethodGet, b.graphPath("ready"), nil, nil)
	if err == nil {
		return true, nil
	}
	var re *RemoteError
	if errors.As(err, &re) && re.Status == http.StatusServiceUnavailable {
		return false, nil
	}
	return false, err
}

// Healthz probes the remote process's aggregate /healthz route — the
// router's per-endpoint health signal (one probe covers every graph the
// endpoint serves).
func (b *RemoteBackend) Healthz(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// fetchInfo returns the cached remote GraphInfo, refreshing it when
// stale. Failures return the last known info (zero value before the
// first success) so status surfaces degrade instead of erroring.
func (b *RemoteBackend) fetchInfo() GraphInfo {
	b.infoMu.Lock()
	defer b.infoMu.Unlock()
	if b.infoOnce && time.Since(b.infoAt) < infoTTL {
		return b.info
	}
	var gi GraphInfo
	if err := b.do(context.Background(), http.MethodGet, "/graphs/"+url.PathEscape(b.graph), nil, &gi); err == nil {
		b.info = gi
		b.infoOnce = true
	}
	b.infoAt = time.Now()
	return b.info
}

// N implements Backend from the remote graph's status.
func (b *RemoteBackend) N() int { return b.fetchInfo().N }

// MemoryBytes implements Backend: the remote engine's resident estimate.
// Registry budgets treat it like any other backend — evicting a remote
// graph drops the client, not the worker's engine.
func (b *RemoteBackend) MemoryBytes() int64 { return b.fetchInfo().MemoryBytes }

// Describe implements Backend from the remote graph's status.
func (b *RemoteBackend) Describe() BackendInfo {
	gi := b.fetchInfo()
	return BackendInfo{HopsetEdges: gi.HopsetEdges, Shards: gi.Shards}
}

// Stats implements Backend over GET /graphs/{name}/stats. A failed fetch
// returns zero Stats (stats are monitoring, not correctness).
func (b *RemoteBackend) Stats() Stats {
	var resp struct {
		Engine Stats `json:"engine"`
	}
	if err := b.do(context.Background(), http.MethodGet, b.graphPath("stats"), nil, &resp); err != nil {
		return Stats{}
	}
	return resp.Engine
}

var (
	_ Backend       = (*RemoteBackend)(nil)
	_ MatrixBackend = (*RemoteBackend)(nil)
	_ OffsetBackend = (*RemoteBackend)(nil)
)

package obs

import "net/http"

// StatusWriter wraps an http.ResponseWriter and records the status code and
// bytes written, for access logging. The zero status reads as 200, matching
// net/http's implicit WriteHeader on first Write.
type StatusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// NewStatusWriter wraps w.
func NewStatusWriter(w http.ResponseWriter) *StatusWriter {
	return &StatusWriter{ResponseWriter: w}
}

// WriteHeader records the status and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write forwards the body bytes, accounting them.
func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush sends any buffered response data to the client when the wrapped
// writer supports it, so streaming handlers behind the middleware (the job
// event stream) deliver each event as it is written.
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap returns the wrapped writer, for http.ResponseController.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Status returns the response status (200 if never set explicitly).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Bytes returns the response body bytes written so far.
func (w *StatusWriter) Bytes() int64 { return w.bytes }

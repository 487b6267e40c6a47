package server

// Server-sent-events progress streaming on GET /v1/jobs/{id}. A request
// carrying `Accept: text/event-stream` subscribes to the job's live
// progress instead of polling: one `state` event with the current record,
// then an `iteration` event per completed fixpoint pass and `ingest` events
// as the streaming loads advance — at most one per MiB of input, plus one
// with each load's final totals (loadProgress) — and finally a `done` event
// with the terminal record. Each event's data is the full job JSON (the same shape
// the polling GET returns), so consumers need exactly one decoder.

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// ssePingInterval paces keep-alive comments so idle proxies do not reap a
// stream between fixpoint iterations of a big alignment.
const ssePingInterval = 15 * time.Second

// wantsEventStream reports whether the request asked for SSE.
func wantsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// handleJobEvents streams one job's progress as SSE until the job reaches a
// terminal state or the client goes away.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ch, cancel, ok := s.jobs.watch(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		// No streaming transport: answer like the polling GET.
		writeJSON(w, http.StatusOK, j)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	write := func(typ string, job Job) bool {
		data, err := json.Marshal(job)
		if err != nil {
			return false
		}
		if _, err := w.Write([]byte("event: " + typ + "\ndata: ")); err != nil {
			return false
		}
		if _, err := w.Write(data); err != nil {
			return false
		}
		if _, err := w.Write([]byte("\n\n")); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	if !write(EventState, j) {
		return
	}
	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// Terminal transition: the channel closed (possibly before
				// slower progress events could be delivered), so re-read
				// the final record rather than trusting the last event.
				if final, ok := s.jobs.get(id); ok {
					write(EventDone, final)
				}
				return
			}
			if !write(ev.Type, ev.Job) {
				return
			}
		case <-ping.C:
			if _, err := w.Write([]byte(": ping\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

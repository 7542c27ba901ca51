package globalmmcs

import (
	"context"
	"errors"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Sentinel errors of the public API. Every error returned by a Server,
// Client or Session method wraps one of these (or a context error), so
// callers classify failures with errors.Is instead of string matching:
//
//	if _, err := client.Join(ctx, id, "desk"); errors.Is(err, globalmmcs.ErrSessionNotFound) {
//	    ...
//	}
var (
	// ErrSessionNotFound reports an operation on an unknown session id.
	ErrSessionNotFound = errors.New("globalmmcs: session not found")
	// ErrNotParticipant reports an operation on a user who is not a
	// member of the (existing) session, e.g. leaving twice.
	ErrNotParticipant = errors.New("globalmmcs: user not in session")
	// ErrNotConnected reports an operation on a closed client.
	ErrNotConnected = errors.New("globalmmcs: client not connected")
	// ErrServerStopped reports an operation on a stopped server.
	ErrServerStopped = errors.New("globalmmcs: server stopped")
	// ErrTimeout reports a request the session server did not answer in
	// time. A context deadline expiring surfaces as ErrTimeout too (and
	// still matches context.DeadlineExceeded).
	ErrTimeout = errors.New("globalmmcs: request timed out")
	// ErrPermissionDenied reports an operation the session server
	// refused (e.g. terminating a session someone else created).
	ErrPermissionDenied = errors.New("globalmmcs: permission denied")
	// ErrFloorBusy reports a floor request while another participant
	// holds the floor.
	ErrFloorBusy = errors.New("globalmmcs: floor busy")
	// ErrSessionNotActive reports a join on a scheduled session outside
	// its active window.
	ErrSessionNotActive = errors.New("globalmmcs: session not active")
	// ErrInvalidRequest reports a malformed request: one the session
	// server rejected, or an option value outside its range, refused
	// before anything was subscribed or sent.
	ErrInvalidRequest = errors.New("globalmmcs: invalid request")
	// ErrConflict reports an operation conflicting with current state
	// (e.g. releasing a floor the user does not hold).
	ErrConflict = errors.New("globalmmcs: conflict")
	// ErrNoSuchMedia reports a media operation on a channel kind the
	// session does not carry.
	ErrNoSuchMedia = errors.New("globalmmcs: session has no such media channel")
	// ErrStreamClosed reports a Recv on a Stream that was closed (and
	// whose buffered events are exhausted).
	ErrStreamClosed = errors.New("globalmmcs: stream closed")
	// ErrPublisherClosed reports a Publish on a closed Publisher.
	ErrPublisherClosed = errors.New("globalmmcs: publisher closed")
	// ErrConnLost reports an operation that raced a broker-connection
	// loss. Unlike ErrNotConnected it is transient: a reconnect-enabled
	// client recovers the link and the operation can be retried.
	ErrConnLost = errors.New("globalmmcs: broker connection lost")
)

// taggedErr pairs a public sentinel with the underlying cause so both
// match under errors.Is.
type taggedErr struct {
	sentinel error
	cause    error
}

func (e *taggedErr) Error() string { return e.sentinel.Error() + ": " + e.cause.Error() }

func (e *taggedErr) Unwrap() []error { return []error{e.sentinel, e.cause} }

func tag(sentinel, cause error) error { return &taggedErr{sentinel: sentinel, cause: cause} }

// wrapErr translates internal-layer errors into the public taxonomy.
// Context cancellation passes through untagged: a caller-initiated
// cancel is not a fault of the system.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	var se *xgsp.StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case xgsp.StatusNotFound:
			return tag(ErrSessionNotFound, err)
		case xgsp.StatusNotMember:
			return tag(ErrNotParticipant, err)
		case xgsp.StatusDenied:
			return tag(ErrPermissionDenied, err)
		case xgsp.StatusBadRequest:
			return tag(ErrInvalidRequest, err)
		case xgsp.StatusConflict:
			return tag(ErrConflict, err)
		case xgsp.StatusFloorBusy:
			return tag(ErrFloorBusy, err)
		case xgsp.StatusNotScheduled:
			return tag(ErrSessionNotActive, err)
		}
		return err
	}
	switch {
	case errors.Is(err, context.Canceled):
		return err
	case errors.Is(err, xgsp.ErrTimeout),
		errors.Is(err, broker.ErrFenceTimeout),
		errors.Is(err, context.DeadlineExceeded):
		return tag(ErrTimeout, err)
	case errors.Is(err, broker.ErrConnLost):
		return tag(ErrConnLost, err)
	case errors.Is(err, xgsp.ErrClosed), errors.Is(err, broker.ErrClientClosed):
		return tag(ErrNotConnected, err)
	case errors.Is(err, broker.ErrPublisherClosed):
		return tag(ErrPublisherClosed, err)
	case errors.Is(err, broker.ErrBrokerStopped):
		return tag(ErrServerStopped, err)
	}
	return err
}

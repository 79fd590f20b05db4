package core

import "errors"

// Sentinel errors of the query API. Retrieval paths wrap these with
// fmt.Errorf("...: %w", ...) so call sites classify failures with
// errors.Is instead of matching message strings; the hgs package
// re-exports them and the serve layer maps them onto HTTP status codes.
var (
	// ErrNotLoaded reports a query against a store that holds no index
	// yet (no graph metadata / zero timespans): nothing was built or
	// appended, and a durable open found an empty directory.
	ErrNotLoaded = errors.New("index not loaded")
	// ErrClosed reports an operation on a store whose Close has begun.
	ErrClosed = errors.New("store closed")
	// ErrNodeNotFound reports a node absent at the queried time. Core
	// retrievals return (nil, nil) for absence; the boundary layers
	// construct errors from this value where absence must be an error
	// (e.g. an HTTP 404).
	ErrNodeNotFound = errors.New("node not found")
	// ErrOutOfRange reports a query time outside the indexed history
	// where the caller asked for strict range checking.
	ErrOutOfRange = errors.New("time out of indexed range")
	// ErrFormat reports a store written in a format other than Format.
	// Such a store is refused, not read or migrated.
	ErrFormat = errors.New("unsupported store format")
)

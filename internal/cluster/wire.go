package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// HTTP headers of the intra-cluster protocol.
const (
	// HeaderForwarded marks a request a coordinator routed to this node; the
	// receiver executes locally and never re-routes, so a misconfigured mesh
	// cannot forward a request in circles.
	HeaderForwarded = "X-Tsperrd-Forwarded"
	// HeaderFingerprint carries the sender's model fingerprint; the receiver
	// rejects a mismatch with 409 so results never mix across operating
	// points or cell-library revisions.
	HeaderFingerprint = "X-Tsperrd-Fingerprint"
)

// DecodeJSON decodes exactly one JSON value from body into v, and fails
// closed: a body longer than limit bytes, an unknown field, or anything but
// whitespace after the value is an error. It is the decode of every JSON
// body tsperrd reads from a client. A handler passes its ResponseWriter, so
// that net/http closes the connection after an oversized body.
func DecodeJSON(w http.ResponseWriter, body io.ReadCloser, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, &tooLarge):
		return err
	default:
		return errors.New("unexpected data after the JSON value")
	}
}

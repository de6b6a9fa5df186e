// Package wiretest holds what fake route servers in tests share: reading
// the request a pops.ServiceClient sent, in whichever framing it chose.
package wiretest

import (
	"fmt"
	"net/http"
	"testing"

	"pops/internal/wire"
	"pops/internal/wirebin"
)

// DecodeRoute decodes a fake server's /route or /route/stream request body
// through the servers' own decoder, wirebin.DecodeRequestBody. A body that
// does not decode, or whose shape (d and g) did not arrive, fails the test
// and is answered 400; ok reports whether the handler may go on. It calls
// t.Errorf, never t.Fatal, because handlers run off the test's goroutine.
func DecodeRoute(t testing.TB, w http.ResponseWriter, r *http.Request) (req wire.RouteRequest, ok bool) {
	err := wirebin.DecodeRequestBody(r.Header.Get("Content-Type"), r.Body, &req)
	if err == nil && (req.D <= 0 || req.G <= 0) {
		err = fmt.Errorf("request arrived without its shape (d=%d, g=%d)", req.D, req.G)
	}
	if err != nil {
		t.Errorf("fake server: %s body (Content-Type %q): %v", r.URL.Path, r.Header.Get("Content-Type"), err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

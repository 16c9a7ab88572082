package obs

import (
	"fmt"
	"net/http"
	"strconv"
)

// QueryN parses the ?n= cap of a debug route — the one rule every route
// that takes it shares: absent means all (max); otherwise a non-negative
// integer, clamped to max. Anything else is the client's error.
func QueryN(r *http.Request, max int) (int, error) {
	raw := r.URL.Query().Get("n")
	if raw == "" {
		return max, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad n %q: want a non-negative integer", raw)
	}
	return min(n, max), nil
}

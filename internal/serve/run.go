package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so a client trickling them (slowloris) cannot hold a
// connection open. There is deliberately no body timeout: /v1/reloadz
// bodies carry whole dictionaries. A variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests.
const idleTimeout = 2 * time.Minute

// Handle is a running HTTP listener bound to a Server. It exists so that
// callers outside the goroutine-allowlisted packages (cmd/extdict-serve,
// the CI smoke test) never write a `go` statement themselves: Start owns
// the accept-loop goroutine, Close joins it.
type Handle struct {
	srv  *Server
	http *http.Server
	ln   net.Listener
	done chan error
}

// Start listens on addr (":8347", "127.0.0.1:0", …) and serves srv's mux
// from a background accept loop. The caller owns both lifetimes and ends
// them with Close.
func Start(addr string, srv *Server) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &Handle{
		srv: srv,
		http: &http.Server{
			Handler:           srv.Mux(),
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln:   ln,
		done: make(chan error, 1),
	}
	go func() {
		h.done <- h.http.Serve(h.ln)
	}()
	return h, nil
}

// Addr returns the bound listen address (useful with port 0).
func (h *Handle) Addr() string { return h.ln.Addr().String() }

// Server returns the underlying serve.Server.
func (h *Handle) Server() *Server { return h.srv }

// Close shuts the service down in drain order: stop accepting new
// connections and wait out in-flight handlers, then drain the batchers.
// Requests accepted before Close get coded and answered; the accept loop's
// exit is joined before return.
func (h *Handle) Close() error {
	err := h.http.Shutdown(context.Background())
	h.srv.Close()
	serveErr := <-h.done
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

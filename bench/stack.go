package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/serve"
)

// clients is the closed loop's width: two goroutines, each on its own
// keep-alive connection. Fixed at the core count of the box the
// benchmark was defined on; wider loops there measure the scheduler.
const clients = 2

// stack is the serving tier assembled in one process over loopback TCP
// from the constructors the binaries wrap: client → gateway → replicas,
// and optionally replica → dist coordinator → workers.
type stack struct {
	gatewayURL string
	replicas   []string
	client     *http.Client

	httpServers []*http.Server
	serveWG     sync.WaitGroup
	servers     []*serve.Server
	coord       *dist.Coordinator
	stopWorkers context.CancelFunc
	workersWG   sync.WaitGroup
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.httpServers = append(s.httpServers, srv)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return "http://" + ln.Addr().String(), nil
}

// newStack builds gateway → nReplicas replicas. With distWorkers > 0
// the replicas evaluate through a dist coordinator with that many
// single-slot in-process workers. tr is nil for the untraced run.
func newStack(nReplicas, distWorkers int, tr *tracing) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var eval func(context.Context, *serve.Request) (any, error) // nil: local evaluation
	if distWorkers > 0 {
		if eval, err = s.startPool(distWorkers, tr); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nReplicas; i++ {
		srv := serve.New(serve.Config{
			Registry:  tr.registry(),
			Logger:    obs.OrNop(nil),
			Evaluator: tr.evaluator(eval),
		})
		s.servers = append(s.servers, srv)
		url, err := s.listen(tr.handler(fmt.Sprintf("replica%d", i), spanReplica, srv.Handler()))
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, url)
	}
	cfg := gateway.Config{Replicas: s.replicas, Registry: tr.registry()}
	if tr != nil {
		// The same pool sizes gateway.New gives its default client.
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConns = 256
		base.MaxIdleConnsPerHost = 128
		cfg.Client = &http.Client{Transport: upstream{t: tr, base: base}}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	if s.gatewayURL, err = s.listen(tr.handler("gateway", spanGateway, gw)); err != nil {
		return nil, err
	}
	ct := http.DefaultTransport.(*http.Transport).Clone()
	ct.MaxIdleConns = clients
	ct.MaxIdleConnsPerHost = clients
	s.client = &http.Client{Transport: ct, Timeout: time.Minute}
	return s, nil
}

// startPool starts a coordinator and n single-slot workers and returns
// the evaluator that runs on them.
func (s *stack) startPool(n int, tr *tracing) (func(context.Context, *serve.Request) (any, error), error) {
	s.coord = dist.New(dist.Config{Registry: tr.registry()})
	addr, err := s.coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < n; i++ {
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("worker%d", i), Slots: 1, Addr: addr})
		w.Register(serve.KindModel, tr.workerEval(serve.EvalShard))
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			_ = w.Run(ctx) // ends with ctx's error at close()
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.coord.Workers() < n; {
		if time.Now().After(deadline) {
			return nil, errors.New("dist workers did not connect within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	var p serve.Pool = s.coord
	if tr != nil {
		p = pool{t: tr, next: s.coord}
	}
	return serve.PoolEvaluator(p, 0), nil
}

// close stops every listener, server, worker and connection the stack
// started and waits for their goroutines.
func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, srv := range s.httpServers {
		_ = srv.Close()
	}
	s.serveWG.Wait()
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workersWG.Wait()
	}
	if s.coord != nil {
		s.coord.Close()
	}
}

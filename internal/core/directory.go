package core

import (
	"fmt"
	"time"

	"tax/internal/directory"
)

// DirectoryConfig describes the deployment's directory plane: which
// nodes carry shards and how bindings are replicated and leased.
type DirectoryConfig struct {
	// Nodes are the plane members (host names; the nodes must be added
	// to the system after EnableDirectory).
	Nodes []string
	// Replicas is the replication factor R, owner included (0 =
	// directory.DefaultReplicas, clamped to len(Nodes)).
	Replicas int
	// TTL is the binding lease length (0 = directory.DefaultTTL,
	// negative disables expiry).
	TTL time.Duration
	// AckTimeout bounds each replica forward / anti-entropy RPC.
	AckTimeout time.Duration
}

// EnableDirectory turns on the sharded directory plane: every node in
// cfg.Nodes added afterwards runs a shard service (ag_nsd) backed by
// its file cabinet, and DirectoryClient routes naming traffic across
// them. Call before AddNode, like EnableTower.
func (s *System) EnableDirectory(cfg DirectoryConfig) (*directory.Ring, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = directory.DefaultReplicas
	}
	ring, err := directory.NewRing(cfg.Nodes, directory.DefaultVNodes, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nodes) > 0 {
		for _, n := range cfg.Nodes {
			if _, exists := s.nodes[n]; exists {
				return nil, fmt.Errorf("core: EnableDirectory must run before member node %q is added", n)
			}
		}
	}
	s.dirRing = ring
	s.dirCfg = cfg
	return ring, nil
}

// DirectoryClient returns a client routing over the plane. It errors
// when the plane is not enabled.
func (s *System) DirectoryClient() (directory.Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirRing == nil {
		return directory.Client{}, fmt.Errorf("core: directory plane not enabled")
	}
	return directory.Client{Ring: s.dirRing, Timeout: s.dirCfg.AckTimeout}, nil
}

// directoryServer lazily builds the node's plane membership (the same
// Server object survives restarts: its shard recovers from the cabinet
// on each handler relaunch). Returns nil when the plane is off or the
// node is not a member.
func (s *System) directoryServer(node *Node) *directory.Server {
	s.mu.Lock()
	ring, cfg := s.dirRing, s.dirCfg
	s.mu.Unlock()
	if ring == nil {
		return nil
	}
	member := false
	for _, n := range cfg.Nodes {
		if n == node.Name {
			member = true
			break
		}
	}
	if !member {
		return nil
	}
	if node.Dir == nil {
		node.Dir = directory.NewServer(directory.Config{
			Node:       node.Name,
			Ring:       ring,
			FW:         node.FW,
			Principal:  s.SystemPrincipal.Name(),
			Store:      node.Cabinet,
			TTL:        cfg.TTL,
			AckTimeout: cfg.AckTimeout,
		})
		node.FW.SetDir(node.Dir.Rows)
	}
	return node.Dir
}

package mem

import (
	"repro/internal/pool"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Requests and replies sit in queues all over a checkpointed GPU (SM out
// queues, LLC MSHRs, NoC packets), so their wire form lives here, next to
// the types, for every component's codec to share.

// RequestWireMin and ReplyWireMin are the fewest bytes a Request or Reply
// encodes to (one per field), for wire.Reader.Count.
const (
	RequestWireMin = 8
	ReplyWireMin   = 8
)

// AppendRequest appends q's wire form to b.
func AppendRequest(b []byte, q *Request) []byte {
	b = wire.AppendUvarint(b, q.ID)
	b = wire.AppendUvarint(b, q.Addr)
	b = wire.AppendBool(b, q.Write)
	b = wire.AppendInt(b, q.SM)
	b = wire.AppendInt(b, q.Cluster)
	b = wire.AppendInt(b, q.Warp)
	b = wire.AppendUvarint(b, q.IssuedAt)
	return wire.AppendInt(b, q.AppID)
}

// ReadFrom overwrites the request with the next one in r.
func (q *Request) ReadFrom(r *wire.Reader) {
	q.ID = r.Uvarint()
	q.Addr = r.Uvarint()
	q.Write = r.Bool()
	q.SM = r.Int()
	q.Cluster = r.Int()
	q.Warp = r.Int()
	q.IssuedAt = r.Uvarint()
	q.AppID = r.Int()
}

// AppendQueue appends the requests of q as a counted run.
func AppendQueue(b []byte, q *ring.Deque[*Request]) []byte {
	b = wire.AppendUvarint(b, uint64(q.Len()))
	for i := 0; i < q.Len(); i++ {
		b = AppendRequest(b, q.At(i))
	}
	return b
}

// ReadQueue refills q with the next counted run of requests in r, each taken
// from p: the single-container ownership invariant makes a request read back
// equivalent to the one written.
func ReadQueue(r *wire.Reader, q *ring.Deque[*Request], p *pool.FreeList[Request]) {
	q.Clear()
	for range r.Count(RequestWireMin) {
		req := p.Get()
		req.ReadFrom(r)
		q.PushBack(req)
	}
}

// AppendReply appends p's wire form to b.
func AppendReply(b []byte, p *Reply) []byte {
	b = wire.AppendUvarint(b, p.ReqID)
	b = wire.AppendUvarint(b, p.Addr)
	b = wire.AppendInt(b, p.SM)
	b = wire.AppendInt(b, p.Warp)
	b = wire.AppendInt(b, p.AppID)
	b = wire.AppendBool(b, p.HitLLC)
	b = wire.AppendUvarint(b, p.IssuedAt)
	return wire.AppendUvarint(b, p.CreatedAt)
}

// ReadFrom overwrites the reply with the next one in r.
func (p *Reply) ReadFrom(r *wire.Reader) {
	p.ReqID = r.Uvarint()
	p.Addr = r.Uvarint()
	p.SM = r.Int()
	p.Warp = r.Int()
	p.AppID = r.Int()
	p.HitLLC = r.Bool()
	p.IssuedAt = r.Uvarint()
	p.CreatedAt = r.Uvarint()
}

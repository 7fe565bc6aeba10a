package mem

import "repro/internal/wire"

// Requests and replies sit in queues all over a checkpointed GPU (SM out
// queues, LLC MSHRs, NoC packets), so their wire form lives here, next to
// the types, for every State codec to share.

// RequestWireMin and ReplyWireMin are the fewest bytes a Request or Reply
// encodes to (one per field), for wire.Reader.Count.
const (
	RequestWireMin = 8
	ReplyWireMin   = 8
)

// AppendTo appends the request's wire form to b.
func (q *Request) AppendTo(b []byte) []byte {
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

// AppendRequests appends a counted run of requests.
func AppendRequests(b []byte, qs []Request) []byte {
	b = wire.AppendUvarint(b, uint64(len(qs)))
	for i := range qs {
		b = qs[i].AppendTo(b)
	}
	return b
}

// ReadRequests reads a counted run of requests into dst's backing array.
func ReadRequests(r *wire.Reader, dst []Request) []Request {
	dst = wire.Resize(dst, r.Count(RequestWireMin))
	for i := range dst {
		dst[i].ReadFrom(r)
	}
	return dst
}

// AppendTo appends the reply's wire form to b.
func (p *Reply) AppendTo(b []byte) []byte {
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

package client

// ReplyBufs is the pool Search reads replies into, for the external tests.
var ReplyBufs = &replyBufs
